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
	// recycled marks a UC whose last deploy rebound a retired deploy
	// kit instead of rehydrating from scratch (the deploy-kit cache
	// hit/miss signal for metrics).
	recycled bool
	// meta holds the kernel-side frames backing the UC descriptor,
	// event-context stacks, and proxy mappings.
	meta []mem.Frame
	// stub is the fallback hypercall host created when a caller passed
	// nil, remembered so kit recycling does not rebuild it per deploy.
	stub hypercall.Host
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
	// Keep the slice's capacity: a recycled kit refills it on redeploy.
	u.meta = u.meta[:0]
}

// nextID is process-global so UC identifiers stay unique across the
// shards of a node pool; shards deploy UCs concurrently from their own
// goroutines, hence the atomic.
var nextID atomic.Uint64

// deployGen counts deployments process-wide. Every path that hands a UC
// to a caller — fresh boot, snapshot deploy, kit redeploy — draws a new
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
//
// When the snapshot holds a retired deploy kit — a UC destroyed while
// its interpreter state still equaled the payload — the guest stack is
// rebound instead of rebuilt, skipping the Go-level rehydration replay
// entirely. On real hardware that replay does not exist (the state
// arrives inside the memory image), so the fast path is also the more
// faithful one.
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
	if kit, _ := snap.TakeDeployKit().(*UC); kit != nil {
		if err := kit.redeploy(snap, space, regs, payload, host, env); err != nil {
			space.Release()
			snap.ReleaseUC()
			return nil, 0, err
		}
		return kit, prefetched, nil
	}
	inner := hostOrStub(host)
	u := &UC{
		id:    nextID.Add(1),
		space: space,
		from:  snap,
		env:   env,
		host:  hypercall.NewCounter(inner, costs.Hypercall, env),
		regs:  regs,
		state: stateIdle,
	}
	if host == nil {
		u.stub = inner
	}
	if err := u.allocMeta(space.Backing()); err != nil {
		space.Release()
		snap.ReleaseUC()
		return nil, 0, err
	}
	uk := libos.New(space, u.host, env)
	uk.Rehydrate(payload.Libos)
	rt, err := interp.RestoreFromState(uk, payload.Interp, snap.DiffPages())
	if err != nil {
		u.freeMeta(space.Backing())
		space.Release()
		snap.ReleaseUC()
		return nil, 0, err
	}
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

// redeploy rebinds a retired deploy kit to a fresh deployment: new
// address space, new environment, clean hypercall accounting, guest
// metadata reset from the payload. The interpreter replay is skipped —
// the kit was only cached because its interpreter state still equals
// the payload. Runs allocation-free in steady state.
func (u *UC) redeploy(snap *snapshot.Snapshot, space *pagetable.AddressSpace, regs snapshot.Registers, payload Payload, host hypercall.Host, env libos.Env) error {
	u.id = nextID.Add(1)
	u.space = space
	u.from = snap
	u.env = env
	u.regs = regs
	u.state = stateIdle
	u.recycled = true
	inner := host
	if inner == nil {
		if u.stub == nil {
			u.stub = hypercall.NewStubHost()
		}
		inner = u.stub
	}
	u.host.Reset(inner, env)
	if err := u.allocMeta(space.Backing()); err != nil {
		u.state = stateDestroyed
		return err
	}
	uk := u.guest.Unikernel()
	uk.Reattach(space, u.host, env)
	uk.Rehydrate(payload.Libos)
	u.guest.ResetForRedeploy(payload.Interp, snap.DiffPages())
	// A recycled kit shares its guest stack across incarnations — without
	// a re-draw, every redeploy would replay the previous clone's stream.
	u.reseed(uk, u.guest)
	if err := uk.Resume(); err != nil {
		u.freeMeta(space.Backing())
		u.state = stateDestroyed
		return err
	}
	return nil
}

func hostOrStub(h hypercall.Host) hypercall.Host {
	if h == nil {
		return hypercall.NewStubHost()
	}
	return h
}

// ID returns the UC's unique identifier.
func (u *UC) ID() uint64 { return u.id }

// Recycled reports whether this UC's most recent deploy rebound a
// retired deploy kit (skipping rehydration) rather than building the
// guest from the snapshot payload.
func (u *UC) Recycled() bool { return u.recycled }

// Space returns the UC's address space.
func (u *UC) Space() *pagetable.AddressSpace { return u.space }

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
//
// If the guest never ran anything since rehydration — its interpreter
// state still equals the deploy source's payload — the UC retires into
// the snapshot's deploy-kit cache instead of being dropped for the GC,
// and the next Deploy from that snapshot rebinds it allocation-free.
func (u *UC) Destroy() {
	if u.state == stateDestroyed {
		return
	}
	u.env.ChargeCPU(costs.UCDestroy)
	u.freeMeta(u.space.Backing())
	u.space.Release()
	from := u.from
	if from != nil {
		from.ReleaseUC()
	}
	u.state = stateDestroyed
	if from != nil && u.guest != nil && u.guest.Pristine() {
		// Drop references that must not outlive this incarnation; the
		// kit keeps only the guest stack and its own recycled storage.
		u.space = nil
		u.from = nil
		u.env = nil
		from.CacheDeployKit(u)
	}
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
