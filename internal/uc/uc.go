// Package uc implements unikernel contexts (§3): the unit of deployment
// for individually isolated function executions.
//
// A UC couples an address space (hardware state: page tables, frames,
// registers) with the guest software stack (libos + interpreter). UCs
// come into existence two ways, mirroring the paper:
//
//   - BootFresh: the once-per-interpreter system initialization — boot
//     the unikernel, load the interpreter, start the invocation driver.
//     Slow by design; it happens before the runtime snapshot.
//   - Deploy: create a UC from a snapshot — a shallow page-table copy
//     plus register restore, the fast path every invocation uses.
//
// Capture plays the role of the prototype's debug-register trigger: it
// freezes the UC's instantaneous state into a new snapshot layered on
// the UC's deploy source, and the UC continues transparently.
package uc

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"seuss/internal/costs"
	"seuss/internal/entropy"
	"seuss/internal/hypercall"
	"seuss/internal/interp"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/pagetable"
	"seuss/internal/snapshot"
	"time"
)

// Synthesized trigger addresses: the simulation's stand-ins for "the
// exact instruction within the unikernel where the snapshot is
// captured" (§6). Distinct per trigger point so tests can assert which
// path a deployment resumes on.
const (
	// TriggerPCDriverListen is the runtime-snapshot trigger: the driver
	// has started and sits in its accept loop.
	TriggerPCDriverListen = uint64(0x0000_0000_0040_1a40)
	// TriggerPCPostCompile is the function-snapshot trigger: source
	// imported and compiled, about to read run arguments.
	TriggerPCPostCompile = uint64(0x0000_0000_0040_2b80)
)

// Payload is the guest metadata a snapshot carries (see
// snapshot.SetPayload).
type Payload struct {
	Libos  libos.State
	Interp interp.State
	// image is the snapshot's interpreter image, built on its first
	// deploy (imageOf) and never encoded: it lives and dies with the
	// snapshot that carries this payload.
	image *interp.Image
}

// state is a UC's lifecycle state.
type state int

// Lifecycle states.
const (
	stateIdle state = iota
	stateRunning
	stateDestroyed
)

var stateNames = [...]string{"idle", "running", "destroyed"}

// String implements fmt.Stringer.
func (s state) String() string { return stateNames[s] }

// errDestroyed is returned for operations on a destroyed UC.
var errDestroyed = errors.New("uc: destroyed")

// UC is one unikernel context.
type UC struct {
	id    uint64
	space *pagetable.AddressSpace
	from  *snapshot.Snapshot // deploy source; nil for fresh boots
	guest *interp.Runtime
	host  *hypercall.Counter
	env   libos.Env
	state state
	regs  snapshot.Registers
	// meta holds the kernel-side frames backing the UC descriptor,
	// event-context stacks, and proxy mappings.
	meta []mem.Frame
}

// allocMeta reserves the kernel-side frames for a live UC.
func (u *UC) allocMeta(st *mem.Store) error {
	n := int(costs.UCKernelMetaBytes / mem.PageSize)
	for i := 0; i < n; i++ {
		f, err := st.Alloc()
		if err != nil {
			u.freeMeta(st)
			return err
		}
		u.meta = append(u.meta, f)
	}
	return nil
}

func (u *UC) freeMeta(st *mem.Store) {
	for _, f := range u.meta {
		st.DecRef(f)
	}
	u.meta = nil
}

// nextID is process-global so UC identifiers stay unique across the
// shards of a node pool; shards deploy UCs concurrently from their own
// goroutines, hence the atomic.
var nextID atomic.Uint64

// deployGen counts deployments process-wide. Every path that hands a UC
// to a caller — fresh boot or snapshot deploy — draws a new
// generation and mixes it with a host entropy draw into the guest's RNG
// seed (DESIGN.md §14): clones deployed from one byte-identical
// snapshot must diverge, and the generation makes the divergence
// unconditional even if the host's entropy source is weak.
var deployGen atomic.Uint64

func init() {
	// Fold a boot-time generation into the id counter so UC ids (and the
	// request ids derived from them) do not collide across process
	// restarts sharing a snapshot directory.
	nextID.Store(entropy.IDBase())
}

// reseed draws host entropy and a fresh deploy generation into the
// guest, making this incarnation's RNG stream unique. Shared by every
// deploy path; pure arithmetic plus one hypercall crossing.
func (u *UC) reseed(uk *libos.Unikernel, rt *interp.Runtime) {
	gen := deployGen.Add(1)
	uk.SetDeployGeneration(gen)
	rt.Reseed(uk.DrawEntropy(), gen)
}

// BootFresh builds a UC from nothing with the default (Node.js)
// interpreter profile. See BootFreshProfile.
func BootFresh(st *mem.Store, host hypercall.Host, env libos.Env) (*UC, error) {
	return BootFreshProfile(st, host, env, interp.NodeJS)
}

// BootFreshProfile builds a UC from nothing: boot the unikernel, load
// the given interpreter, start the invocation driver. Used once per
// supported interpreter during system initialization (§4: one runtime
// snapshot per interpreter).
func BootFreshProfile(st *mem.Store, host hypercall.Host, env libos.Env, prof interp.Profile) (*UC, error) {
	space, err := pagetable.New(st)
	if err != nil {
		return nil, fmt.Errorf("uc: boot: %w", err)
	}
	u := &UC{
		id:    nextID.Add(1),
		space: space,
		env:   env,
		host:  hypercall.NewCounter(hostOrStub(host), costs.Hypercall, env),
		state: stateRunning,
	}
	if err := u.allocMeta(st); err != nil {
		space.Release()
		return nil, err
	}
	uk := libos.New(space, u.host, env)
	if err := uk.Boot(); err != nil {
		space.Release()
		return nil, err
	}
	rt := interp.NewRuntimeWithProfile(uk, prof)
	if err := rt.InitInterpreter(); err != nil {
		space.Release()
		return nil, err
	}
	if err := rt.StartDriver(); err != nil {
		space.Release()
		return nil, err
	}
	u.reseed(uk, rt)
	u.guest = rt
	u.regs = snapshot.Registers{PC: TriggerPCDriverListen, SP: libos.StackTop - 4096}
	u.state = stateIdle
	return u, nil
}

// Deploy creates a UC from a snapshot: the shallow page-table copy,
// core mapping, TLB flush, and register restore of §6, followed by
// rehydration of the guest stack from the snapshot's payload.
func Deploy(snap *snapshot.Snapshot, host hypercall.Host, env libos.Env) (*UC, error) {
	u, _, err := DeployPrefetched(snap, host, env, nil)
	return u, err
}

// DeployPrefetched is Deploy with a working-set replay: before the
// resumed guest executes its first instruction, every page in ws (the
// lineage's recorded working set, page-base VAs sorted ascending) is
// bulk-mapped privately writable in one batched page-table walk —
// turning the serial first-touch fault storm of a lukewarm restore
// into a single prefetch charged at the batched rate (DESIGN.md §13).
// Returns the UC and how many pages were prefetched. A nil or empty ws
// is exactly Deploy.
func DeployPrefetched(snap *snapshot.Snapshot, host hypercall.Host, env libos.Env, ws []uint64) (*UC, int, error) {
	env.ChargeCPU(costs.UCDeploy)
	space, regs, err := snap.Deploy()
	if err != nil {
		return nil, 0, err
	}
	payload, ok := snap.Payload().(Payload)
	if !ok {
		space.Release()
		snap.ReleaseUC()
		return nil, 0, fmt.Errorf("uc: snapshot %q has no guest payload", snap.Name())
	}
	img, err := imageOf(snap, payload)
	if err != nil {
		space.Release()
		snap.ReleaseUC()
		return nil, 0, err
	}
	prefetched := 0
	if len(ws) > 0 {
		// Replay before Resume: the resume-time rewrite of runtime
		// bookkeeping is the bulk of the storm being skipped. A replay
		// failure only loses the optimization — the on-demand path
		// still resolves every page.
		if n, perr := space.PrefetchWritable(ws); perr == nil {
			prefetched = n
			env.ChargeCPU(costs.WSPrefetchBase + time.Duration(n)*costs.WSPrefetchPerPage)
		}
	}
	u := &UC{
		id:    nextID.Add(1),
		space: space,
		from:  snap,
		env:   env,
		host:  hypercall.NewCounter(hostOrStub(host), costs.Hypercall, env),
		regs:  regs,
		state: stateIdle,
	}
	if err := u.allocMeta(space.Backing()); err != nil {
		space.Release()
		snap.ReleaseUC()
		return nil, 0, err
	}
	uk := libos.New(space, u.host, env)
	uk.Rehydrate(payload.Libos)
	rt := interp.Restore(uk, img, snap.DiffPages())
	// Re-draw uniqueness before the guest's first instruction: every
	// clone of this snapshot restored the same staleSeed.
	u.reseed(uk, rt)
	// The resumed guest immediately rewrites its runtime bookkeeping
	// (stacks, timers, socket rebind) — real post-resume work, charged.
	if err := uk.Resume(); err != nil {
		u.freeMeta(space.Backing())
		space.Release()
		snap.ReleaseUC()
		return nil, 0, err
	}
	u.guest = rt
	return u, prefetched, nil
}

// imageOf returns the interpreter image of snap, whose payload is p,
// building it on the snapshot's first deploy: derived from its base
// snapshot's image when that holds a prefix of the replay (a function
// snapshot over its runtime snapshot), replayed from nothing otherwise.
// The image is stored back on the snapshot's own payload, so it is
// built on the goroutine that owns the snapshot and collected with it.
func imageOf(snap *snapshot.Snapshot, p Payload) (*interp.Image, error) {
	if p.image != nil {
		return p.image, nil
	}
	var base *interp.Image
	if b := snap.Base(); b != nil {
		if bp, ok := b.Payload().(Payload); ok && p.Interp.Extends(bp.Interp) {
			var err error
			if base, err = imageOf(b, bp); err != nil {
				return nil, err
			}
		}
	}
	img, err := interp.BuildImage(p.Interp, base)
	if err != nil {
		return nil, err
	}
	p.image = img
	snap.SetPayload(p)
	return img, nil
}

func hostOrStub(h hypercall.Host) hypercall.Host {
	if h == nil {
		return hypercall.NewStubHost()
	}
	return h
}

// ID returns the UC's unique identifier.
func (u *UC) ID() uint64 { return u.id }

// Space returns the UC's address space.
func (u *UC) Space() *pagetable.AddressSpace { return u.space }

// Hypercalls returns the UC's hypercall crossing counter.
func (u *UC) Hypercalls() *hypercall.Counter { return u.host }

// Guest returns the runtime inside the UC.
func (u *UC) Guest() *interp.Runtime { return u.guest }

// SetRunning marks the UC as hosting a live invocation.
func (u *UC) SetRunning() { u.state = stateRunning }

// SetIdle marks the UC as cached and reusable (hot-path candidate).
func (u *UC) SetIdle() { u.state = stateIdle }

// Capture freezes the UC's instantaneous state into a snapshot named
// name, layered on the UC's deploy source. The UC continues running
// transparently afterwards (its pages become CoW). triggerPC records
// where execution resumes for deployments of the new snapshot.
func (u *UC) Capture(name string, triggerPC uint64) (*snapshot.Snapshot, error) {
	if u.state == stateDestroyed {
		return nil, errDestroyed
	}
	dirty := u.space.DirtyCount()
	u.env.ChargeCPU(costs.SnapshotBase + time.Duration(dirty)*costs.SnapshotPerPage)
	regs := u.regs
	regs.PC = triggerPC
	regs.GPR[0] = u.guest.Unikernel().HeapBrk()
	snap, err := snapshot.Capture(name, u.from, u.space, regs)
	if err != nil {
		return nil, err
	}
	snap.SetPayload(Payload{
		Libos:  u.guest.Unikernel().State(),
		Interp: u.guest.State(),
	})
	return snap, nil
}

// Destroy tears the UC down, releasing its address space and its
// reference on the deploy source.
func (u *UC) Destroy() {
	if u.state == stateDestroyed {
		return
	}
	u.env.ChargeCPU(costs.UCDestroy)
	u.freeMeta(u.space.Backing())
	u.space.Release()
	if u.from != nil {
		u.from.ReleaseUC()
	}
	u.state = stateDestroyed
}

// FootprintBytes returns the UC's private memory cost: pages its faults
// created plus its private page-table nodes — the marginal cost of
// caching this UC (Table 3's density denominator).
func (u *UC) FootprintBytes() int64 {
	if u.state == stateDestroyed {
		return 0
	}
	return u.space.FootprintBytes() + int64(len(u.meta))*mem.PageSize
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
