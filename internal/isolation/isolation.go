// Package isolation implements the Linux-side execution-environment
// baselines of the Table 3 microbenchmarks: plain processes, Docker
// containers on the overlay2/bridge stack, and Firecracker microVMs via
// the Kata backend. Each provides the same contract — create an idle
// Node.js environment, invoke in it, destroy it — with calibrated cost
// models for creation latency (including Docker's population- and
// parallelism-dependent scaling the paper documents) and idle memory
// footprint.
//
// SEUSS UCs satisfy the same contract through internal/core; the
// Table 3 harness drives all four.
package isolation

import (
	"errors"
	"time"

	"seuss/internal/costs"
	"seuss/internal/netsim"
	"seuss/internal/sim"
)

// ErrOutOfMemory is returned by Create when the node memory budget
// cannot hold another idle instance.
var ErrOutOfMemory = errors.New("isolation: node memory exhausted")

// ErrConnTimeout is returned when an instance's network connection
// drops (bridge saturation) and the platform request times out.
var ErrConnTimeout = errors.New("isolation: connection timed out")

// memPool is the node's memory budget shared by all instances of a
// backend (the 88 GB VM).
type memPool struct {
	budget int64
	used   int64
}

// NewMemPool returns a pool with the given byte budget.
func NewMemPool(budget int64) *memPool { return &memPool{budget: budget} }

// take reserves n bytes; false if the budget would be exceeded.
func (m *memPool) take(n int64) bool {
	if m.used+n > m.budget {
		return false
	}
	m.used += n
	return true
}

// give returns n bytes.
func (m *memPool) give(n int64) {
	m.used -= n
	if m.used < 0 {
		m.used = 0
	}
}

// Instance is one idle-or-busy execution environment.
type Instance struct {
	backend *Backend
	foot    int64
	dead    bool
}

// Kind is the isolation technology.
type Kind int

// The isolation methods of Table 3.
const (
	KindProcess Kind = iota
	KindContainer
	KindMicroVM
)

var kindNames = [...]string{"process", "container", "microvm"}

// String implements fmt.Stringer.
func (k Kind) String() string { return kindNames[k] }

// Backend creates and destroys instances of one isolation kind,
// applying that kind's cost model.
type Backend struct {
	kind     Kind
	mem      *memPool
	bridge   *netsim.Bridge // containers only
	rng      *sim.RNG
	pop      int // live instances
	inflight int // concurrent creations (Docker daemon contention)

	// Created / Destroyed count lifetime churn.
	Created   int64
	Destroyed int64
}

// NewBackend returns a backend of the given kind drawing from mem.
// bridge may be nil for non-container kinds.
func NewBackend(kind Kind, mem *memPool, bridge *netsim.Bridge, rng *sim.RNG) *Backend {
	return &Backend{kind: kind, mem: mem, bridge: bridge, rng: rng}
}

// createLatency returns the modeled creation time at the current
// population and parallelism. The Docker model encodes the paper's two
// observed scalability problems: latency proportional to the number of
// containers on the system, and latency proportional to the number of
// concurrent creations in flight.
func (b *Backend) createLatency() time.Duration {
	switch b.kind {
	case KindProcess:
		return b.rng.Jitter(costs.ProcessCreate, 0.05)
	case KindContainer:
		d := costs.ContainerCreateBase
		d += time.Duration(b.pop) * costs.ContainerCreatePerExisting
		if b.inflight > 1 {
			par := b.inflight - 1
			if par > costs.DockerDaemonPool-1 {
				par = costs.DockerDaemonPool - 1
			}
			d += time.Duration(par) * costs.ContainerCreatePerParallel
		}
		if over := b.inflight - costs.DockerDaemonPool; over > 0 {
			d += time.Duration(over) * costs.ContainerCreateThrash
		}
		return b.rng.Jitter(d, 0.05)
	default:
		d := costs.MicroVMCreate
		if b.inflight > 1 {
			d += time.Duration(b.inflight-1) * costs.MicroVMCreatePerParallel
		}
		return b.rng.Jitter(d, 0.05)
	}
}

// Create provisions one idle Node.js environment, blocking p for the
// modeled duration. It fails with ErrOutOfMemory when the node is
// saturated — the density limit of Table 3.
func (b *Backend) Create(p *sim.Proc) (*Instance, error) {
	foot := b.idleBytes()
	if !b.mem.take(foot) {
		return nil, ErrOutOfMemory
	}
	b.inflight++
	d := b.createLatency()
	p.Sleep(d)
	b.inflight--
	b.pop++
	b.Created++
	if b.kind == KindContainer && b.bridge != nil {
		b.bridge.Attach()
		// The new endpoint's first connection can already hit a
		// saturated bridge.
		if !b.bridge.Connect() {
			p.Sleep(costs.ConnTimeout)
			b.destroyLocked(p, &Instance{backend: b, foot: foot})
			return nil, ErrConnTimeout
		}
	}
	return &Instance{backend: b, foot: foot}, nil
}

// Prewarm provisions an instance instantly — platform setup that
// happens before the measurement clock starts (e.g. populating the
// initial stemcell pool on a fresh deployment). Memory and bridge
// accounting are identical to Create; only the latency is skipped.
func (b *Backend) Prewarm() (*Instance, error) {
	foot := b.idleBytes()
	if !b.mem.take(foot) {
		return nil, ErrOutOfMemory
	}
	b.pop++
	b.Created++
	if b.kind == KindContainer && b.bridge != nil {
		b.bridge.Attach()
	}
	return &Instance{backend: b, foot: foot}, nil
}

// Destroy tears the instance down, releasing memory and its bridge
// endpoint.
func (b *Backend) Destroy(p *sim.Proc, inst *Instance) {
	if inst.dead {
		return
	}
	if b.kind == KindContainer {
		p.Sleep(costs.ContainerDestroy)
	} else {
		p.Sleep(10 * time.Millisecond)
	}
	b.destroyLocked(p, inst)
}

func (b *Backend) destroyLocked(_ *sim.Proc, inst *Instance) {
	inst.dead = true
	b.mem.give(inst.foot)
	if b.pop > 0 {
		b.pop--
	}
	b.Destroyed++
	if b.kind == KindContainer && b.bridge != nil {
		b.bridge.Detach()
	}
}

// idleBytes returns the marginal idle footprint for the kind.
func (b *Backend) idleBytes() int64 {
	switch b.kind {
	case KindProcess:
		return costs.ProcessIdleBytes
	case KindContainer:
		return costs.ContainerIdleBytes
	default:
		return costs.MicroVMIdleBytes
	}
}
