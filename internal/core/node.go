// Package core implements the SEUSS compute node — the paper's primary
// contribution (§4, §6): a kernel that deploys serverless functions
// from unikernel snapshots.
//
// The node maintains two caches:
//
//   - a snapshot cache: one base runtime snapshot per interpreter plus
//     function-specific snapshots layered on it (snapshot stacks), and
//   - a UC cache: idle, fully-initialized UCs awaiting re-invocation.
//
// Every invocation is one spine — deploy → connect → import → capture
// → run — entered at whatever depth the caches allow (Figure 2):
//
//	hot:      an idle UC for the function exists — run.
//	warm:     a function snapshot is resident — deploy from it,
//	          connect, run.
//	lukewarm: the snapshot's encoded diff is on local disk — promote
//	          it, then as warm, with the recorded working set premapped.
//	cold:     nothing cached — deploy from the base runtime snapshot,
//	          connect, import and compile the source, capture a function
//	          snapshot for future warm starts, run.
//
// Every request leaves through finish (one span, one outcome count),
// and every event the node accounts is one count call: Stats and the
// metrics recorder are two readings of the same ledger.
//
// Memory management follows §6: CoW overcommit is resolved by a trivial
// OOM policy — idle UCs are reclaimed as soon as available physical
// memory drops below a threshold; function snapshots with no active
// UCs are evicted LRU when the snapshot cache itself must shrink.
//
// Failure model (§4): faults are contained to the UC. A UC that
// crashes, exhausts its invocation deadline, or errors mid-run is
// destroyed — never returned to the idle cache, where its dirty
// interpreter state would poison later warm hits — and its immutable
// snapshot redeploys a fresh context on retry. Under memory pressure
// the node degrades in stages (reclaim idle UCs → evict coldest
// function snapshots → serve the request cold) instead of failing it.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"seuss/internal/costs"
	"seuss/internal/entropy"
	"seuss/internal/fault"
	"seuss/internal/hypercall"
	"seuss/internal/interp"
	"seuss/internal/lang"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/metrics"
	"seuss/internal/netsim"
	"seuss/internal/policy"
	"seuss/internal/sim"
	"seuss/internal/snapshot"
	"seuss/internal/snapstore"
	"seuss/internal/trace"
	"seuss/internal/uc"
)

// Path labels which invocation path served a request.
type Path int

// The three invocation paths of §4, plus the disk tier's lukewarm
// path: the function snapshot is not resident but its encoded diff is
// on local disk, so the node promotes (read + graft) instead of
// replaying the interpreter — cheaper than cold, dearer than warm.
const (
	PathCold Path = iota
	PathWarm
	PathHot
	PathLukewarm
)

var pathNames = [...]string{"cold", "warm", "hot", "lukewarm"}

// String implements fmt.Stringer.
func (p Path) String() string { return pathNames[p] }

// ErrNodeSaturated is returned when an invocation cannot obtain memory
// even after the full degradation ladder (idle reclaim, snapshot
// eviction, cold fallback). Contained: memory may free up; retry.
var ErrNodeSaturated = errors.New("core: node memory saturated")

// ErrUCCrashed is returned when a UC dies mid-invocation (injected or
// real). The UC is destroyed; the function's snapshot is untouched, so
// a retry deploys a fresh context — the §4 containment guarantee.
var ErrUCCrashed = errors.New("core: uc crashed mid-invocation")

// ErrDeadlineExceeded is returned when an invocation exhausts its
// deadline's interpreter-step budget. The runaway UC is destroyed.
var ErrDeadlineExceeded = errors.New("core: invocation deadline exceeded")

// Config parameterizes a Node.
type Config struct {
	// Cores is the worker core count (default: costs.NodeCores).
	Cores int
	// MemoryBytes is the physical memory budget (default:
	// costs.NodeMemoryBytes).
	MemoryBytes int64
	// NetworkAO and InterpreterAO select which anticipatory
	// optimizations run before the base runtime snapshot (both default
	// true; Table 2 ablates them).
	NetworkAO     bool
	InterpreterAO bool
	// OOMThreshold is the fraction of memory below which idle UCs are
	// reclaimed (default 0.02).
	OOMThreshold float64
	// Seed drives the node's deterministic RNG.
	Seed int64
	// Entropy, when non-nil, supplies the host entropy drawn at every UC
	// deploy (restore-time uniqueness, DESIGN.md §14). The shards of a
	// pool share one function, each calling it from its own goroutine, so
	// it must be safe for concurrent use — entropy.NewSharedSource is the
	// standard choice. nil derives a deterministic per-node stream from
	// Seed, keeping tests and the simulation replayable by default;
	// divergence between clones is guaranteed either way by the deploy
	// generation mixed into each draw.
	Entropy func() uint64
	// HTTPHandler services outbound guest requests: it returns the
	// response body and how long the remote end blocks. nil fails
	// guest http.get calls.
	HTTPHandler func(url string) (body string, delay time.Duration, err error)
	// MaxIdlePerFn caps cached idle UCs per function (default 64).
	MaxIdlePerFn int
	// Tracer, when non-nil, records the node's structured event
	// timeline (see internal/trace).
	Tracer *trace.Tracer
	// Runtimes lists the interpreter profiles to boot and snapshot at
	// system initialization (default: nodejs only). The first entry is
	// the default runtime for requests that name none.
	Runtimes []string
	// InvokeDeadline bounds each invocation's guest execution; it is
	// converted to an interpreter step budget (deadline / StepTime) and
	// a UC that exhausts it is destroyed, not recycled. Per-request
	// deadlines (Request.Deadline) override it. 0 = the interpreter's
	// default lifetime budget only.
	InvokeDeadline time.Duration
	// Faults injects deterministic failures at the node's registered
	// fault points (see internal/fault). nil disables injection with
	// zero overhead on the serving path.
	Faults *fault.Injector
	// Metrics, when non-nil, receives the node's pre-registered
	// counters and latency histograms (see internal/metrics). Recording
	// is atomic adds only — safe for the allocation-free hot path. nil
	// disables collection at zero cost (nil-safe methods).
	Metrics *metrics.Recorder
	// SnapStore, when non-nil, is the on-disk snapshot tier: evictions
	// demote encoded diffs into it instead of destroying them, warm
	// misses consult it for a lukewarm restore, and graceful drains
	// flush the resident stacks through it. A pool's shards share one
	// store (it is internally synchronized). nil keeps today's
	// destroy-on-evict behavior.
	SnapStore *snapstore.Store
	// Policy, when non-nil, turns on lifecycle management: PolicyTick
	// expires idle UCs past their keep-alive window, demotes idle
	// lineages to the disk tier (scale-to-zero), and promotes lineages
	// back ahead of predicted recurrences (prewarm). The policy is
	// consulted only from the node's owner goroutine; a shard pool
	// clones it per shard. nil keeps the pressure ladder as the only
	// reclaim trigger — exactly the pre-policy behavior.
	Policy policy.Policy
	// Residency, when non-nil, observes the reaper's lineage residency
	// transitions (scale-to-zero demotions, prewarm promotions). A
	// cluster wires this to its scheduler view so placement stops
	// routing to members whose copy left RAM. Callbacks run on the
	// node's owner goroutine and must not re-enter the node.
	Residency ResidencyListener
}

// ResidencyListener observes lineage residency transitions driven by
// the lifecycle reaper.
type ResidencyListener interface {
	// LineageDemoted fires after the reaper scales key to zero: the
	// resident snapshot was demoted to the disk tier and freed.
	LineageDemoted(key string)
	// LineagePromoted fires after the prewarm scheduler promotes key
	// back into RAM.
	LineagePromoted(key string)
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = costs.NodeCores
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = costs.NodeMemoryBytes
	}
	if c.OOMThreshold == 0 {
		c.OOMThreshold = 0.02
	}
	if c.MaxIdlePerFn == 0 {
		c.MaxIdlePerFn = 64
	}
	if len(c.Runtimes) == 0 {
		c.Runtimes = []string{"nodejs"}
	}
	return c
}

// Normalized returns the config with defaults applied — the exact
// config a node built from it will run with. Exported for callers that
// derive values from the defaulted form before construction (e.g. a
// shard pool dividing the defaulted memory budget).
func (c Config) Normalized() Config { return c.withDefaults() }

// DefaultConfig returns the paper's configuration: 16 cores, 88 GB,
// both AOs on.
func DefaultConfig() Config {
	return Config{NetworkAO: true, InterpreterAO: true}
}

// Stats counts node activity: a view of a counter array, computed by
// StatsOf at read time — of one node's ledger (Node.Stats), of one
// shard's recorder, or of a pool's sum.
type Stats struct {
	Cold, Warm, Hot   int64
	Lukewarm          int64 // invocations restored from the disk tier
	Errors            int64
	UCsDeployed       int64
	UCsReclaimed      int64 // idle UCs destroyed by the OOM policy
	SnapshotsCaptured int64
	SnapshotsEvicted  int64
	// UCCrashes counts UCs destroyed after a contained mid-invocation
	// fault (crash, deadline, guest error) instead of being recycled.
	UCCrashes int64
	// DeadlinesExceeded counts invocations killed by their step-budget
	// deadline (a subset of UCCrashes).
	DeadlinesExceeded int64
	// The degradation ladder under memory pressure:
	// level 1 — idle UCs reclaimed to make a deploy fit;
	// level 2 — cold function snapshots evicted to make a deploy fit;
	// level 3 — warm deploys abandoned and served cold instead.
	PressureIdleReclaims      int64
	PressureSnapshotEvictions int64
	PressureColdFallbacks     int64
	// FaultsInjected counts fault points fired on this node or its shard.
	FaultsInjected int64
	// The snapshot disk tier: lookups on warm misses, evictions
	// persisted as demotions, diffs grafted back in (lukewarm restores
	// plus boot prewarms).
	TierHits           int64
	TierMisses         int64
	SnapshotsDemoted   int64
	SnapshotsPromoted  int64
	SnapshotsPrewarmed int64
	// Working-set record/replay on the lukewarm path: records written
	// on a lineage's first restore, drift merges, corrupt records
	// dropped, pages bulk-mapped before resume, and how well the record
	// covered what the invocation actually touched.
	WSRecorded        int64
	WSMerged          int64
	WSCorrupt         int64
	WSPrefetchedPages int64
	WSCoverageHits    int64
	WSCoverageMisses  int64
	// The lifecycle policy reaper: keep-alive expirations (idle UCs
	// destroyed plus lineages scaled to zero) and prewarm outcomes.
	PolicyExpirations     int64
	PolicyPrewarms        int64
	PolicyPrewarmMisses   int64
	PolicyPrewarmMisfires int64
}

// managedUC pairs a UC with its host environment so later operations
// (hot invokes, OOM reclaim) can re-bind the environment to whichever
// process performs them, plus the UC's network identity: the worker
// core it is resident on and the proxy port mapping the kernel uses to
// reach its driver (§6 Networking — TCP destination ports are the
// unique key mapping packets to an active UC).
type managedUC struct {
	u    *uc.UC
	e    *env
	core int
	port int
}

type idleUC struct {
	mu   *managedUC
	key  string
	last sim.Time
}

type fnEntry struct {
	snap *snapshot.Snapshot
	last sim.Time
	// ws is the lineage's decoded working-set record — the pages its
	// first lukewarm restore touched, bulk-mapped before resume on
	// later restores. nil arms recording: the next successful lukewarm
	// invocation harvests its dirty set into a fresh record.
	ws []uint64
}

// Node is one SEUSS compute node.
//
// Ownership contract: a Node is NOT safe for concurrent use. All of its
// methods — Invoke, Stats, CachedSnapshots, IdleUCs, MemStats, the
// adopt/export surface — must be called from the single goroutine that
// owns the node's sim.Engine (in a sharded pool, the shard goroutine;
// see internal/shardpool). Cross-goroutine access must be routed
// through that owner, not performed directly.
type Node struct {
	eng   *sim.Engine
	cfg   Config
	store *mem.Store
	cores *sim.Resource
	proxy *netsim.Proxy

	runtimeSnap  *snapshot.Snapshot            // default runtime (first profile)
	runtimeSnaps map[string]*snapshot.Snapshot // one per supported interpreter
	fnSnaps      map[string]*fnEntry
	idle         map[string][]*idleUC
	idleCount    int
	nextCore     int

	// prewarmDue schedules policy-predicted promotions: key → the
	// instant (duration since engine start) PolicyTick should promote
	// the scaled-to-zero lineage back into RAM. An invocation arriving
	// first cancels the entry.
	prewarmDue map[string]time.Duration

	// entropySrc backs deploy-time entropy draws when cfg.Entropy is
	// nil. Plain (non-atomic) state is fine under the node ownership
	// contract: one goroutine owns all node methods.
	entropySrc *entropy.Source

	// ledger is the node's one count of what happened. Only count writes
	// it; Stats reads it. It is private to the node because cfg.Metrics
	// need not be: a cluster's members may share one recorder, or have
	// none.
	ledger metrics.Counters
}

// count records delta occurrences of one event — the node's single
// bookkeeping write: its own ledger, which Stats derives from, and the
// attached recorder (nil-safe, atomic adds only).
func (n *Node) count(ctr metrics.Counter, delta int64) {
	n.ledger[ctr] += delta
	n.cfg.Metrics.AddCounter(ctr, delta)
}

// eventAt records one point event on the node's timeline.
func (n *Node) eventAt(at time.Duration, kind trace.Kind, id uint64, key, detail string) {
	n.cfg.Tracer.Record(trace.Event{At: at, Kind: kind, ID: id, Key: key, Detail: detail})
}

// event is eventAt the current virtual instant (the reaper stamps its
// events with the tick's start instead).
func (n *Node) event(kind trace.Kind, id uint64, key, detail string) {
	n.eventAt(time.Duration(n.eng.Now()), kind, id, key, detail)
}

// snapshotEvent records a point event about snap, sized in its detail
// (formatted only when a tracer is attached: capture is on the cold
// path, demote and promote on the tier's).
func (n *Node) snapshotEvent(kind trace.Kind, id uint64, key string, snap *snapshot.Snapshot) {
	if n.cfg.Tracer != nil {
		n.event(kind, id, key, fmt.Sprintf("%.1f MB diff", float64(snap.DiffBytes())/1e6))
	}
}

// newNodeShell builds the node structure around an existing store; the
// caller is responsible for populating the runtime snapshots.
func newNodeShell(eng *sim.Engine, cfg Config, store *mem.Store) *Node {
	return &Node{
		eng:          eng,
		cfg:          cfg,
		store:        store,
		cores:        sim.NewResource(eng, cfg.Cores),
		proxy:        netsim.NewProxy(cfg.Cores),
		fnSnaps:      make(map[string]*fnEntry),
		idle:         make(map[string][]*idleUC),
		prewarmDue:   make(map[string]time.Duration),
		runtimeSnaps: make(map[string]*snapshot.Snapshot, len(cfg.Runtimes)),
		entropySrc:   entropy.NewSource(uint64(cfg.Seed)),
	}
}

// drawEntropy returns the next host entropy value for a UC deploy:
// the caller-supplied source when configured, else the node's
// deterministic per-seed stream.
func (n *Node) drawEntropy() uint64 {
	if n.cfg.Entropy != nil {
		return n.cfg.Entropy()
	}
	return n.entropySrc.Next()
}

// BootRuntime performs system initialization for one interpreter
// runtime inside store: boot the unikernel, load the interpreter, start
// the invocation driver, apply the configured AOs, and capture the base
// runtime snapshot ("runtime/<name>"). Initialization happens before
// the experiment clock matters and charges no engine time.
//
// It is exported so a sharded pool can boot the runtime image once,
// export it through the snapshot codec, and hydrate every shard from
// the encoded bytes instead of re-running AO per shard.
func BootRuntime(store *mem.Store, cfg Config, name string) (*snapshot.Snapshot, error) {
	prof, err := interp.ProfileByName(name)
	if err != nil {
		return nil, fmt.Errorf("core: system init: %w", err)
	}
	initEnv := &libos.CountingEnv{}
	// The boot UC draws its RNG seed from host entropy like every other
	// deploy path — never the compile-time constant it used to share
	// with every node ever booted. Deterministic from Seed unless the
	// caller supplies a live source.
	stub := hypercall.NewStubHost()
	stub.EntropyState = entropy.Splitmix64(uint64(cfg.Seed) ^ 0xB007)
	var host hypercall.Host = stub
	if cfg.Entropy != nil {
		host = entropyHost{Host: stub, draw: cfg.Entropy}
	}
	boot, err := uc.BootFreshProfile(store, host, initEnv, prof)
	if err != nil {
		return nil, fmt.Errorf("core: system init (%s): %w", name, err)
	}
	if cfg.NetworkAO {
		if err := boot.Guest().Unikernel().WarmNetwork(); err != nil {
			return nil, err
		}
	}
	if cfg.InterpreterAO {
		if err := boot.Guest().WarmInterpreter(); err != nil {
			return nil, err
		}
	}
	snap, err := boot.Capture("runtime/"+name, uc.TriggerPCDriverListen)
	if err != nil {
		return nil, fmt.Errorf("core: runtime snapshot (%s): %w", name, err)
	}
	return snap, nil
}

// entropyHost overrides just the Entropy draw of an inner hypercall
// host with a caller-supplied source (BootRuntime runs before any node
// exists to route through).
type entropyHost struct {
	hypercall.Host
	draw func() uint64
}

// Entropy implements hypercall.Host.
func (h entropyHost) Entropy() uint64 { return h.draw() }

// NewNode builds a node and performs system initialization: boot the
// unikernel into the interpreter, run the invocation driver, apply the
// configured AOs, and capture the base runtime snapshot.
func NewNode(eng *sim.Engine, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	n := newNodeShell(eng, cfg, mem.NewStore(cfg.MemoryBytes))
	for _, name := range cfg.Runtimes {
		snap, err := BootRuntime(n.store, cfg, name)
		if err != nil {
			return nil, err
		}
		n.count(metrics.CtrReseedsBoot, 1)
		n.runtimeSnaps[name] = snap
		if n.runtimeSnap == nil {
			n.runtimeSnap = snap
		}
	}
	return n, nil
}

// NewNodeFromSnapshots builds a node whose base runtime snapshots are
// already resident in store — typically materialized from encoded diffs
// (snapshot.Materialize) rather than booted in place. This is how a
// sharded pool pays AO and runtime boot once: boot + capture on a
// template, export, then hydrate one node per shard from the bytes.
//
// snaps must contain one entry per configured runtime, keyed by runtime
// name ("nodejs"), each carrying its guest payload. The first
// configured runtime becomes the default. The node takes ownership of
// store and the snapshots.
func NewNodeFromSnapshots(eng *sim.Engine, cfg Config, store *mem.Store, snaps map[string]*snapshot.Snapshot) (*Node, error) {
	cfg = cfg.withDefaults()
	n := newNodeShell(eng, cfg, store)
	for _, name := range cfg.Runtimes {
		snap, ok := snaps[name]
		if !ok {
			return nil, fmt.Errorf("core: hydrate: no snapshot for runtime %q", name)
		}
		if _, isPayload := snap.Payload().(uc.Payload); !isPayload {
			return nil, fmt.Errorf("core: hydrate: runtime %q snapshot has no guest payload", name)
		}
		n.runtimeSnaps[name] = snap
		if n.runtimeSnap == nil {
			n.runtimeSnap = snap
		}
	}
	return n, nil
}

// runtimeSnapFor resolves a request's runtime to its base snapshot.
func (n *Node) runtimeSnapFor(runtime string) (*snapshot.Snapshot, error) {
	if runtime == "" {
		return n.runtimeSnap, nil
	}
	snap, ok := n.runtimeSnaps[runtime]
	if !ok {
		return nil, fmt.Errorf("core: runtime %q not configured", runtime)
	}
	return snap, nil
}

// Engine returns the node's simulation engine.
func (n *Node) Engine() *sim.Engine { return n.eng }

// RuntimeSnapshot returns the default runtime's base snapshot.
func (n *Node) RuntimeSnapshot() *snapshot.Snapshot { return n.runtimeSnap }

// Runtimes returns the configured interpreter names.
func (n *Node) Runtimes() []string {
	out := make([]string, 0, len(n.runtimeSnaps))
	for _, name := range n.cfg.Runtimes {
		if _, ok := n.runtimeSnaps[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

// Stats reads the node's counters off its ledger.
func (n *Node) Stats() Stats { return StatsOf(n.ledger) }

// StatsOf is the one mapping from the metrics registry's counters to
// the Stats shape.
func StatsOf(c metrics.Counters) Stats {
	return Stats{
		Cold:                      c[metrics.CtrColdInvocations],
		Warm:                      c[metrics.CtrWarmInvocations],
		Hot:                       c[metrics.CtrHotInvocations],
		Lukewarm:                  c[metrics.CtrLukewarmInvocations],
		Errors:                    c[metrics.CtrInvokeErrors],
		UCsDeployed:               c[metrics.CtrUCsDeployed],
		UCsReclaimed:              c[metrics.CtrUCsReclaimed],
		SnapshotsCaptured:         c[metrics.CtrSnapshotsCaptured],
		SnapshotsEvicted:          c[metrics.CtrSnapshotsEvicted],
		UCCrashes:                 c[metrics.CtrUCCrashes],
		DeadlinesExceeded:         c[metrics.CtrDeadlinesExceeded],
		PressureIdleReclaims:      c[metrics.CtrPressureIdleReclaims],
		PressureSnapshotEvictions: c[metrics.CtrPressureSnapshotEvictions],
		PressureColdFallbacks:     c[metrics.CtrPressureColdFallbacks],
		FaultsInjected:            c[metrics.CtrFaultsInjected],
		TierHits:                  c[metrics.CtrTierHits],
		TierMisses:                c[metrics.CtrTierMisses],
		SnapshotsDemoted:          c[metrics.CtrTierDemotions],
		SnapshotsPromoted:         c[metrics.CtrTierPromotionsLukewarm] + c[metrics.CtrTierPromotionsPrewarm],
		SnapshotsPrewarmed:        c[metrics.CtrTierPromotionsPrewarm],
		WSRecorded:                c[metrics.CtrWSRecordsRecorded],
		WSMerged:                  c[metrics.CtrWSRecordsMerged],
		WSCorrupt:                 c[metrics.CtrWSRecordsCorrupt],
		WSPrefetchedPages:         c[metrics.CtrWSPrefetchedPages],
		WSCoverageHits:            c[metrics.CtrWSCoverageHits],
		WSCoverageMisses:          c[metrics.CtrWSCoverageMisses],
		PolicyExpirations:         c[metrics.CtrPolicyExpirations],
		PolicyPrewarms:            c[metrics.CtrPolicyPrewarmsPromoted],
		PolicyPrewarmMisses:       c[metrics.CtrPolicyPrewarmsMiss],
		PolicyPrewarmMisfires:     c[metrics.CtrPolicyPrewarmsMisfire],
	}
}

// MemStats returns the physical memory accounting.
func (n *Node) MemStats() mem.Stats { return n.store.Stats() }

// Store exposes the physical memory store (harness use).
func (n *Node) Store() *mem.Store { return n.store }

// CachedSnapshots returns the number of function snapshots cached.
func (n *Node) CachedSnapshots() int { return len(n.fnSnaps) }

// IdleUCs returns the number of cached idle UCs.
func (n *Node) IdleUCs() int { return n.idleCount }

// Cores returns the node's core resource (harness instrumentation).
func (n *Node) Cores() *sim.Resource { return n.cores }

// Proxy exposes the per-core network proxy (instrumentation).
func (n *Node) Proxy() *netsim.Proxy { return n.proxy }

// env builds the host environment one invocation runs against: CPU
// charges contend for the node's cores; blocking does not hold a core.
// A UC's env outlives the process that deployed it, so every node
// operation re-binds the env to the process performing it.
type env struct {
	n *Node
	p *sim.Proc
}

// bind attaches the env to the process about to operate on the UC.
func (e *env) bind(p *sim.Proc) { e.p = p }

// ChargeCPU implements libos.Env. With no bound process (teardown from
// harness code outside the simulation) the charge is dropped.
func (e *env) ChargeCPU(d time.Duration) {
	if d <= 0 || e.p == nil {
		return
	}
	e.n.cores.Use(e.p, d)
}

// Block implements libos.Env.
func (e *env) Block(d time.Duration) {
	if e.p == nil {
		return
	}
	e.p.Sleep(d)
}

// Now implements libos.Env.
func (e *env) Now() time.Duration { return time.Duration(e.n.eng.Now()) }

// HTTPGet implements libos.Env: the request leaves through the per-core
// proxy (masqueraded), crosses the external network, and blocks until
// the remote end replies.
func (e *env) HTTPGet(url string) (string, error) {
	if e.n.cfg.HTTPHandler == nil {
		return "", errors.New("core: no external network configured")
	}
	port, err := e.n.proxy.MapOutbound(0, 0)
	if err != nil {
		return "", err
	}
	defer e.n.proxy.Unmap(port)
	// Fault point: the proxy drops the outbound packet. The flow is
	// absorbed, not failed — one retransmit timeout, then it proceeds.
	if e.n.cfg.Faults.Fire(fault.PointProxyDrop) {
		e.n.count(metrics.CtrFaultsInjected, 1)
		e.p.Sleep(costs.ExternalHTTPLatency)
	}
	e.p.Sleep(costs.ExternalHTTPLatency)
	body, delay, err := e.n.cfg.HTTPHandler(url)
	if err != nil {
		return "", err
	}
	if delay > 0 {
		e.p.Sleep(delay)
	}
	e.p.Sleep(costs.ExternalHTTPLatency)
	return body, nil
}

// Output implements libos.Env (guest console lines are dropped at the
// node level; the platform returns results explicitly).
func (e *env) Output(string) {}

// Request is one invocation request as delivered to the node.
type Request struct {
	// Key uniquely identifies the function (client account + name).
	Key string
	// Source is the function's code; needed only on cold paths.
	Source string
	// Args is the invocation argument JSON document.
	Args string
	// Runtime names the interpreter to run on ("" = the node's default).
	Runtime string
	// Deadline bounds this invocation's guest execution (0 = the
	// node's configured InvokeDeadline, if any). Exhausting it destroys
	// the UC and returns a contained ErrDeadlineExceeded.
	Deadline time.Duration
}

// Result is the node's reply.
type Result struct {
	// ID is the invocation's request ID: unique across every node in
	// the process (one atomic sequence), carried on the invocation's
	// trace span so a response correlates with its timeline events.
	ID uint64
	// Path records which invocation path served the request.
	Path Path
	// Output is the driver's JSON response.
	Output string
	// Latency is the node-side service time (excludes platform
	// overheads), matching Table 1's measurement boundary.
	Latency time.Duration
}

// invokeSeq issues request IDs. Process-global (like uc.nextID) so IDs
// stay unique across the shards of a pool, which each own a node. It
// starts at the boot-generation base, not zero, so request IDs also
// stay unique across process restarts sharing a snapshot directory.
var invokeSeq atomic.Uint64

func init() { invokeSeq.Store(entropy.IDBase()) }

// Per-path metric indices, so finish records without branching.
var (
	pathCounters = [...]metrics.Counter{
		PathCold:     metrics.CtrColdInvocations,
		PathWarm:     metrics.CtrWarmInvocations,
		PathHot:      metrics.CtrHotInvocations,
		PathLukewarm: metrics.CtrLukewarmInvocations,
	}
	pathHists = [...]metrics.Hist{
		PathCold:     metrics.HistColdLatency,
		PathWarm:     metrics.HistWarmLatency,
		PathHot:      metrics.HistHotLatency,
		PathLukewarm: metrics.HistLukewarmLatency,
	}
	reseedCounters = [...]metrics.Counter{
		PathCold:     metrics.CtrReseedsCold,
		PathWarm:     metrics.CtrReseedsWarm,
		PathHot:      metrics.CtrReseedsWarm, // unused: hot never deploys
		PathLukewarm: metrics.CtrReseedsLukewarm,
	}
)

// invocation is one request's envelope on the spine: what finish needs
// to close its span, and what the steps in between stamp their events
// with. It lives on Invoke's stack.
type invocation struct {
	start sim.Time
	id    uint64
	req   Request
	path  Path
	// gen is the deploy generation of the UC that serves the request
	// (0 until one is deployed and connected; hot deploys nothing).
	gen uint64
}

// Invoke services one invocation inside the calling simulated process:
// it draws the request id, applies the OOM policy, and enters the spine
// at the depth the caches allow. Every exit leaves through finish.
func (n *Node) Invoke(p *sim.Proc, req Request) (Result, error) {
	inv := invocation{start: n.eng.Now(), id: invokeSeq.Add(1), req: req}
	n.reclaimIfNeeded(p)

	// Hot: an idle UC for this function — only the run step is left.
	if mu := n.takeIdle(req.Key); mu != nil {
		n.count(metrics.CtrIdleUCHits, 1)
		inv.path = PathHot
		out, err := n.runOn(p, mu, req)
		return n.finish(&inv, out, err)
	}

	// Warm: the function snapshot is resident. On a miss, consult the
	// disk tier: a hit there promotes the encoded diff (read, CRC check,
	// graft onto the resident base) and serves the request lukewarm — no
	// interpreter replay, unlike cold.
	inv.path = PathWarm
	entry, ok := n.fnSnaps[req.Key]
	if ok {
		n.count(metrics.CtrSnapshotStackHits, 1)
	} else {
		n.count(metrics.CtrSnapshotStackMisses, 1)
		inv.path = PathLukewarm
		entry = n.promoteForInvoke(p, req.Key, inv.id)
	}
	if entry != nil {
		out, err := n.fromSnapshot(p, &inv, entry)
		// Only a deploy that ran out of ladder reports saturation.
		if !errors.Is(err, ErrNodeSaturated) || req.Source == "" {
			return n.finish(&inv, out, err)
		}
		// Degradation ladder, level 3: the warm deploy cannot fit even
		// after reclaim and eviction. Drop this function's snapshot
		// (freeing its diff pages) and serve the request cold from the
		// much-shared base runtime image instead of failing it.
		n.dropSnapshot(p, req.Key)
		n.count(metrics.CtrPressureColdFallbacks, 1)
		n.event(trace.KindFault, inv.id, req.Key, "pressure: warm deploy saturated; serving cold")
	}

	inv.path = PathCold
	out, err := n.cold(p, &inv)
	return n.finish(&inv, out, err)
}

// start runs the spine's first two steps: deploy a UC from snap (down
// the pressure ladder when memory is short; ws, when non-nil, is
// bulk-mapped first) and connect its driver. A UC that cannot connect
// is destroyed.
func (n *Node) start(p *sim.Proc, inv *invocation, snap *snapshot.Snapshot, ws []uint64) (*managedUC, error) {
	mu, prefetched, err := n.deploy(p, snap, ws, inv.path)
	if err != nil {
		return nil, err
	}
	if prefetched > 0 {
		n.count(metrics.CtrWSPrefetchedPages, int64(prefetched))
		if n.cfg.Tracer != nil {
			n.event(trace.KindWorkingSet, inv.id, inv.req.Key, fmt.Sprintf("prefetched %d pages", prefetched))
		}
	}
	if err := mu.u.Guest().Connect(); err != nil {
		n.destroyUC(mu)
		return nil, err
	}
	inv.gen = mu.u.Guest().Unikernel().DeployGeneration()
	return mu, nil
}

// fromSnapshot enters the spine at deploy, from the function's own
// snapshot: nothing to import, nothing to capture. A lukewarm deploy
// replays the lineage's recorded working set — the pages the first
// restore faulted on demand are bulk-mapped before the first
// instruction — and a served one feeds the record back. Warm deploys
// are left alone: the snapshot is resident and its faults are cheap.
func (n *Node) fromSnapshot(p *sim.Proc, inv *invocation, entry *fnEntry) (string, error) {
	entry.last = n.eng.Now()
	var ws []uint64
	if inv.path == PathLukewarm {
		ws = entry.ws
	}
	mu, err := n.start(p, inv, entry.snap, ws)
	if err != nil {
		return "", err
	}
	out, err := n.runOn(p, mu, inv.req)
	if inv.path == PathLukewarm && err == nil {
		n.harvestWorkingSet(mu, inv.req.Key, entry, inv.id)
	}
	return out, err
}

// cold runs the whole spine: deploy from the runtime snapshot, connect,
// import and compile, capture the function snapshot, run.
func (n *Node) cold(p *sim.Proc, inv *invocation) (string, error) {
	base, err := n.runtimeSnapFor(inv.req.Runtime)
	if err != nil {
		return "", err
	}
	mu, err := n.start(p, inv, base, nil)
	if err != nil {
		return "", err
	}
	if err := mu.u.Guest().ImportAndCompile(inv.req.Source); err != nil {
		n.destroyUC(mu)
		return "", fmt.Errorf("core: import %q: %w", inv.req.Key, err)
	}
	n.captureFnSnapshot(p, mu.u, inv.req.Key)
	return n.runOn(p, mu, inv.req)
}

// finish closes a request: its one invoke span, its one outcome count,
// and — served — its latency and what the lifecycle policy hears.
func (n *Node) finish(inv *invocation, out string, err error) (Result, error) {
	key, latency := inv.req.Key, time.Duration(n.eng.Now()-inv.start)
	span := trace.Event{
		At: time.Duration(inv.start), Dur: latency,
		Kind: trace.KindInvoke, ID: inv.id, Key: key, Path: inv.path.String(),
		Reseed: inv.gen,
	}
	if err != nil {
		n.count(metrics.CtrInvokeErrors, 1)
		span.Detail = "error: " + err.Error()
		n.cfg.Tracer.Record(span)
		return Result{}, err
	}
	n.cfg.Tracer.Record(span)
	n.count(pathCounters[inv.path], 1)
	n.cfg.Metrics.Observe(pathHists[inv.path], latency)
	if pol := n.cfg.Policy; pol != nil {
		nowD := time.Duration(n.eng.Now())
		pol.RecordInvoke(key, nowD)
		// Touch the lineage so SnapshotKeepAlive ages from the last
		// invocation on every path (hot serves bypass the entry).
		if e, ok := n.fnSnaps[key]; ok {
			e.last = n.eng.Now()
		}
		// A real arrival supersedes any scheduled prewarm.
		delete(n.prewarmDue, key)
		if ka := pol.KeepAlive(key, nowD); ka >= 0 {
			n.cfg.Metrics.Observe(metrics.HistPolicyKeepalive, ka)
		}
	}
	return Result{
		ID:      inv.id,
		Path:    inv.path,
		Output:  out,
		Latency: latency,
	}, nil
}

// deploy creates a UC from a snapshot, bulk-mapping the working-set
// pages first when the caller supplies a record (nil ws is the plain
// on-demand deploy). On memory pressure it walks the degradation
// ladder instead of failing outright: reclaim idle UCs one at a time
// (level 1, LRU-first — they redeploy cheaply from their snapshots),
// then evict the coldest function snapshots (level 2 — future warm
// starts are lost, nothing else). Only when both levels are exhausted
// does it report saturation (level 3, the cold fallback, belongs to
// Invoke, which knows the request).
func (n *Node) deploy(p *sim.Proc, snap *snapshot.Snapshot, ws []uint64, path Path) (*managedUC, int, error) {
	e := &env{n: n, p: p}
	host := &ucNetHost{Host: hypercall.NewStubHost(), n: n, port: new(int)}
	u, prefetched, err := uc.DeployPrefetched(snap, host, e, ws)
	for errors.Is(err, mem.ErrOutOfMemory) && n.reclaimOneIdle(p) {
		n.count(metrics.CtrPressureIdleReclaims, 1)
		u, prefetched, err = uc.DeployPrefetched(snap, host, e, ws)
	}
	for errors.Is(err, mem.ErrOutOfMemory) && n.evictOneSnapshot(p) {
		n.count(metrics.CtrPressureSnapshotEvictions, 1)
		u, prefetched, err = uc.DeployPrefetched(snap, host, e, ws)
	}
	if err != nil {
		if errors.Is(err, mem.ErrOutOfMemory) {
			return nil, 0, fault.Contain(ErrNodeSaturated)
		}
		return nil, 0, err
	}
	n.count(metrics.CtrUCsDeployed, 1)
	if u.Recycled() {
		n.count(metrics.CtrDeployKitHits, 1)
	} else {
		n.count(metrics.CtrDeployKitMisses, 1)
	}
	// Restore-time uniqueness (DESIGN.md §14): the deploy drew fresh
	// entropy and a new generation into the clone's RNG seed. The
	// entropy-stale fault point undoes the re-draw — reproducing the
	// duplicated-stream bug — so the divergence tests can prove they
	// would catch a regression.
	if n.cfg.Faults.Fire(fault.PointEntropyStale) {
		u.Guest().RewindToStaleSeed()
		n.count(metrics.CtrFaultsInjected, 1)
		n.event(trace.KindFault, 0, snap.Name(), "entropy-stale: deploy kept the snapshot's RNG seed")
	} else {
		n.countReseed(u, path)
	}
	mu := &managedUC{u: u, e: e, core: n.nextCore % n.cfg.Cores}
	n.nextCore++
	// Install the UC's port mapping on its resident core so kernel↔UC
	// traffic (connection setup, arguments, results) routes to it.
	if port, perr := n.proxy.MapInternal(u.ID(), mu.core); perr == nil {
		mu.port = port
		*host.port = port
	}
	return mu, prefetched, nil
}

// countReseed accounts the entropy reseed a deploy drew, by the path
// that deployed — or as a kit reseed when the UC was a recycled one.
func (n *Node) countReseed(u *uc.UC, path Path) {
	ctr := reseedCounters[path]
	if u.Recycled() {
		ctr = metrics.CtrReseedsKit
	}
	n.count(ctr, 1)
}

// ucNetHost is the hypercall host the node gives each UC: non-network
// calls hit the standard stub; network reads and writes route through
// the node's per-core proxy under the UC's port mapping, so proxy
// traffic counters reflect real guest activity.
type ucNetHost struct {
	hypercall.Host
	n    *Node
	port *int
}

// NetWrite implements hypercall.Host.
func (h *ucNetHost) NetWrite(frame []byte) error {
	if *h.port != 0 {
		h.n.proxy.RouteOutbound(*h.port)
	}
	return h.Host.NetWrite(frame)
}

// NetRead implements hypercall.Host.
func (h *ucNetHost) NetRead() ([]byte, bool) {
	if *h.port != 0 {
		h.n.proxy.RouteInbound(*h.port)
	}
	return h.Host.NetRead()
}

// Entropy implements hypercall.Host: deploy-time draws come from the
// node's entropy source, not the per-UC stub — every stub starts at
// the same state, but clones of one snapshot must not.
func (h *ucNetHost) Entropy() uint64 { return h.n.drawEntropy() }

// destroyUC tears a managed UC down, removing its proxy mappings.
func (n *Node) destroyUC(mu *managedUC) {
	n.proxy.UnmapUC(mu.u.ID())
	mu.u.Destroy()
}

// captureFnSnapshot records a function snapshot on the cold path,
// evicting old snapshots if the cache is memory-bound. Failure to
// capture is not fatal — the invocation proceeds, only future warm
// starts are lost.
func (n *Node) captureFnSnapshot(p *sim.Proc, u *uc.UC, key string) {
	n.evictSnapshotsIfNeeded(p)
	snap, err := u.Capture("fn/"+key, uc.TriggerPCPostCompile)
	if err != nil {
		return
	}
	n.fnSnaps[key] = &fnEntry{snap: snap, last: n.eng.Now()}
	n.count(metrics.CtrSnapshotsCaptured, 1)
	n.snapshotEvent(trace.KindCapture, 0, key, snap)
}

// runOn performs the shared invocation tail on a ready UC and caches it
// as idle afterwards.
//
// Containment invariant: a UC whose invocation returned an error — a
// crash, a deadline kill, a guest fault — is destroyed here, NEVER
// returned to the idle cache. Its interpreter state is dirty (half-run
// function, exhausted step budget) and would poison later warm hits;
// the function's immutable snapshot is what retries redeploy from.
func (n *Node) runOn(p *sim.Proc, mu *managedUC, req Request) (string, error) {
	mu.e.bind(p)
	mu.u.SetRunning()

	// Thread the invocation deadline into the interpreter's step
	// budget. With no deadline the default lifetime budget is restored,
	// so a prior deadlined run on this UC leaves no residue.
	deadline := req.Deadline
	if deadline == 0 {
		deadline = n.cfg.InvokeDeadline
	}
	if deadline > 0 {
		steps := int64(deadline / costs.StepTime)
		if steps < 1 {
			steps = 1
		}
		mu.u.Guest().LimitSteps(steps)
	} else {
		mu.u.Guest().LimitSteps(lang.DefaultStepBudget)
	}

	// Fault point: the UC crashes mid-invocation. Containment per §4 —
	// discard the context, keep the snapshot.
	if n.cfg.Faults.Fire(fault.PointUCCrash) {
		n.count(metrics.CtrFaultsInjected, 1)
		n.containFault(mu, req.Key, "injected uc crash")
		return "", fault.Contain(ErrUCCrashed)
	}

	out, err := mu.u.Guest().Invoke(req.Args)
	if err != nil {
		n.containFault(mu, req.Key, err.Error())
		if errors.Is(err, lang.ErrTooManySteps) && deadline > 0 {
			n.count(metrics.CtrDeadlinesExceeded, 1)
			return "", fault.Contain(fmt.Errorf("%w after %v: %w", ErrDeadlineExceeded, deadline, err))
		}
		return "", fault.Contain(fmt.Errorf("%w: %v", ErrUCCrashed, err))
	}
	n.putIdle(p, req.Key, mu)
	return out, nil
}

// containFault destroys a faulted UC and records the containment.
func (n *Node) containFault(mu *managedUC, key, detail string) {
	n.destroyUC(mu)
	n.count(metrics.CtrUCCrashes, 1)
	n.event(trace.KindFault, 0, key, detail)
}

// takeIdle pops a cached idle UC for the function.
func (n *Node) takeIdle(key string) *managedUC {
	list := n.idle[key]
	if len(list) == 0 {
		return nil
	}
	entry := list[len(list)-1] // reuse the most recently used (warmest)
	n.idle[key] = list[:len(list)-1]
	n.idleCount--
	return entry.mu
}

// putIdle caches a UC for hot reuse. At the MaxIdlePerFn cap the key's
// LRU idle UC is evicted in favor of the incoming (warmest) one, the
// eviction is accounted as a reclaim, the lifecycle policy hears about
// the pressure, and — when a disk tier is attached — the lineage is
// demote-flushed so the displaced state keeps a lukewarm path back.
// (Previously the incoming UC was silently destroyed: no stat, no
// metric, no policy signal, no tier copy.)
func (n *Node) putIdle(p *sim.Proc, key string, mu *managedUC) {
	mu.u.SetIdle()
	if n.cfg.MaxIdlePerFn < 0 {
		// Negative cap disables the idle cache entirely (a test knob,
		// not pressure) — destroy the UC without reclaim accounting.
		n.destroyUC(mu)
		return
	}
	list := n.idle[key]
	if len(list) >= n.cfg.MaxIdlePerFn && len(list) > 0 {
		victim := list[0]
		copy(list, list[1:])
		list[len(list)-1] = &idleUC{mu: mu, key: key, last: n.eng.Now()}
		n.reclaimUC(p, victim.mu)
		n.notePressure(key)
		if st := n.cfg.SnapStore; st != nil && !st.Has("fn/"+key) {
			if e, ok := n.fnSnaps[key]; ok {
				n.demoteSnapshot(p, e.snap)
			}
		}
		n.event(trace.KindReclaim, 0, key, "idle cap: LRU idle UC evicted for the incoming one")
		return
	}
	n.idle[key] = append(list, &idleUC{mu: mu, key: key, last: n.eng.Now()})
	n.idleCount++
}

// reclaimUC destroys an idle UC the caller has already unlinked from
// the idle cache, on p's time (nil: harness teardown, costs dropped),
// and accounts it as reclaimed.
func (n *Node) reclaimUC(p *sim.Proc, mu *managedUC) {
	mu.e.bind(p)
	n.destroyUC(mu)
	n.count(metrics.CtrUCsReclaimed, 1)
}

// notePressure tells the lifecycle policy key lost idle state to
// memory pressure rather than natural idleness.
func (n *Node) notePressure(key string) {
	if pol := n.cfg.Policy; pol != nil {
		pol.RecordPressure(key, time.Duration(n.eng.Now()))
	}
}

// belowThreshold reports whether available physical memory is under the
// §6 OOM threshold (never, for an unbudgeted store).
func (n *Node) belowThreshold() bool {
	budget := n.store.Budget()
	return budget != 0 && n.store.Available() < int64(float64(budget/mem.PageSize)*n.cfg.OOMThreshold)
}

// reclaimIfNeeded applies the §6 OOM policy: reclaim idle UCs as soon
// as available memory drops below the threshold.
func (n *Node) reclaimIfNeeded(p *sim.Proc) {
	for n.belowThreshold() && n.reclaimOneIdle(p) {
	}
}

// reclaimAll destroys every idle UC (last-resort memory recovery). A
// nil proc is allowed for harness-side teardown; destruction costs are
// then dropped.
func (n *Node) reclaimAll(p *sim.Proc) {
	for n.reclaimOneIdle(p) {
	}
}

// reclaimOneIdle destroys the least recently used idle UC; false if
// none remain.
func (n *Node) reclaimOneIdle(p *sim.Proc) bool {
	var oldestKey string
	var oldestIdx int
	var oldest *idleUC
	for key, list := range n.idle {
		for i, entry := range list {
			if oldest == nil || entry.last < oldest.last ||
				(entry.last == oldest.last && entry.mu.u.ID() < oldest.mu.u.ID()) {
				oldest, oldestKey, oldestIdx = entry, key, i
			}
		}
	}
	if oldest == nil {
		return false
	}
	list := n.idle[oldestKey]
	n.idle[oldestKey] = append(list[:oldestIdx], list[oldestIdx+1:]...)
	if len(n.idle[oldestKey]) == 0 {
		delete(n.idle, oldestKey)
	}
	n.idleCount--
	n.reclaimUC(p, oldest.mu)
	n.notePressure(oldestKey)
	n.event(trace.KindReclaim, 0, oldestKey, "")
	return true
}

// evictSnapshotsIfNeeded shrinks the function-snapshot cache LRU when
// available memory is below threshold. Only snapshots with no active
// UCs and no children may be deleted (§6); idle UCs deployed from a
// candidate are destroyed first.
func (n *Node) evictSnapshotsIfNeeded(p *sim.Proc) {
	for n.belowThreshold() && (n.evictOneSnapshot(p) || n.reclaimOneIdle(p)) {
	}
}

// evictOneSnapshot drops the least recently used function snapshot no
// other snapshot is stacked on; false if there is none, or a live
// invocation still depends on it (try later).
func (n *Node) evictOneSnapshot(p *sim.Proc) bool {
	var lruKey string
	var lru *fnEntry
	for key, entry := range n.fnSnaps {
		if entry.snap.Children() > 0 {
			continue
		}
		if lru == nil || entry.last < lru.last || (entry.last == lru.last && key < lruKey) {
			lru, lruKey = entry, key
		}
	}
	return lru != nil && n.dropSnapshot(p, lruKey)
}

// dropSnapshot is the node's one eviction routine (LRU pressure
// eviction, and the degradation ladder's level 3 for the function being
// served): destroy the function's idle UCs so nothing idle pins it,
// then — if nothing live depends on it — demote and delete the
// snapshot. Reports whether the snapshot is gone.
func (n *Node) dropSnapshot(p *sim.Proc, key string) bool {
	entry, ok := n.fnSnaps[key]
	if !ok {
		return false
	}
	if list, ok := n.idle[key]; ok {
		for _, idle := range list {
			n.idleCount--
			n.reclaimUC(p, idle.mu)
		}
		delete(n.idle, key)
		n.notePressure(key)
	}
	if entry.snap.ActiveUCs() > 0 || entry.snap.Children() > 0 {
		return false
	}
	// Demote-before-delete: persist the encoded diff so the next miss
	// is lukewarm, not cold. Export must precede Delete (a deleted
	// snapshot cannot export); a failed demote degrades to plain
	// destruction.
	n.demoteSnapshot(p, entry.snap)
	if err := entry.snap.Delete(); err != nil {
		return false
	}
	delete(n.fnSnaps, key)
	n.count(metrics.CtrSnapshotsEvicted, 1)
	n.event(trace.KindEvict, 0, key, "")
	return true
}

// ---- Snapshot disk tier: demotion and promotion ----

// chargeTier charges the virtual time of one tier transfer against p
// (nil for harness-side work outside the simulation).
func (n *Node) chargeTier(p *sim.Proc, base, perPage time.Duration, pages int) {
	if p == nil {
		return
	}
	n.cores.Use(p, base+time.Duration(pages)*perPage)
}

// demoteSnapshot writes a snapshot's encoded diff into the disk tier —
// before eviction deletes it, or as a drain-time flush that keeps the
// snapshot resident. Failure, including a full tier, is absorbed: the
// caller proceeds with plain destruction exactly as before the tier
// existed, never erroring the invocation.
func (n *Node) demoteSnapshot(p *sim.Proc, snap *snapshot.Snapshot) bool {
	st := n.cfg.SnapStore
	if st == nil || snap == nil {
		return false
	}
	var buf bytes.Buffer
	if err := snap.Export(&buf); err != nil {
		return false
	}
	base := ""
	if b := snap.Base(); b != nil {
		base = b.Name()
	}
	if err := st.Put(snap.Name(), base, buf.Bytes()); err != nil {
		return false
	}
	n.chargeTier(p, costs.SnapDemoteBase, costs.SnapDemotePerPage, snap.DiffPages())
	n.count(metrics.CtrTierDemotions, 1)
	n.snapshotEvent(trace.KindDemote, 0, snap.Name(), snap)
	return true
}

// residentSnapshot resolves a snapshot name against what is in RAM:
// the runtime base images and the function-snapshot cache.
func (n *Node) residentSnapshot(name string) *snapshot.Snapshot {
	for _, snap := range n.runtimeSnaps {
		if snap.Name() == name {
			return snap
		}
	}
	if key := strings.TrimPrefix(name, "fn/"); key != name {
		if e, ok := n.fnSnaps[key]; ok {
			return e.snap
		}
	}
	return nil
}

// promote restores one encoded diff from the disk tier: read (single-
// flight, CRC-verified by the store), decode, graft onto the resident
// base, reattach the guest payload. A demoted base is promoted first,
// recursively, so a whole snapshot stack restores as a unit. Promoted
// "fn/" snapshots are installed into the function-snapshot cache; kind
// distinguishes a lukewarm restore from a boot prewarm.
func (n *Node) promote(p *sim.Proc, name string, id uint64, kind metrics.Counter) (*snapshot.Snapshot, error) {
	st := n.cfg.SnapStore
	if st == nil {
		return nil, snapstore.ErrNotFound
	}
	data, err := st.Get(name)
	if err != nil {
		n.count(metrics.CtrTierMisses, 1)
		return nil, err
	}
	n.count(metrics.CtrTierHits, 1)
	hdr, err := snapshot.PeekWireHeader(data)
	if err != nil {
		// The store's CRC passed but the codec refused the bytes (a
		// foreign or stale format) — the entry can never promote; drop it.
		st.Delete(name)
		return nil, err
	}
	if hdr.BaseName == "" {
		return nil, fmt.Errorf("core: promote %q: root diffs are not promotable", name)
	}
	base := n.residentSnapshot(hdr.BaseName)
	if base == nil {
		if base, err = n.promote(p, hdr.BaseName, id, kind); err != nil {
			return nil, fmt.Errorf("core: promote %q: base: %w", name, err)
		}
	}
	snap, payloadBytes, err := snapshot.GraftWire(data, base)
	if err != nil {
		return nil, err
	}
	if len(payloadBytes) > 0 {
		payload, perr := uc.DecodePayload(payloadBytes)
		if perr != nil {
			snap.Delete()
			return nil, fmt.Errorf("core: promote %q: payload: %w", name, perr)
		}
		snap.SetPayload(payload)
	}
	n.chargeTier(p, costs.SnapPromoteBase, costs.SnapPromotePerPage, hdr.Pages)
	if key := strings.TrimPrefix(name, "fn/"); key != name {
		n.fnSnaps[key] = &fnEntry{snap: snap, last: n.eng.Now()}
	}
	n.count(kind, 1)
	n.snapshotEvent(trace.KindPromote, id, name, snap)
	return snap, nil
}

// promoteForInvoke is the lukewarm branch of Invoke: on a warm miss it
// attempts a promotion and returns the installed cache entry. nil —
// tier miss, damaged entry, or a graft the memory budget refused —
// sends the request down the cold path.
func (n *Node) promoteForInvoke(p *sim.Proc, key string, id uint64) *fnEntry {
	if n.cfg.SnapStore == nil || key == "" {
		return nil
	}
	// A graft materializes the diff into fresh frames; make the same
	// headroom the capture path does so promotion under memory pressure
	// demotes a colder stack instead of exhausting the store mid-run.
	n.evictSnapshotsIfNeeded(p)
	if _, err := n.promote(p, "fn/"+key, id, metrics.CtrTierPromotionsLukewarm); err != nil {
		return nil
	}
	// The graft consumed frames; restore the headroom the guest's own
	// run-time allocations depend on. Under extreme pressure the victim
	// may be the snapshot just promoted — the miss then degrades to a
	// cold rebuild, which is still an answer, not an error.
	n.evictSnapshotsIfNeeded(p)
	entry := n.fnSnaps[key]
	if entry != nil {
		entry.ws = n.loadWorkingSet("fn/"+key, id)
	}
	return entry
}

// loadWorkingSet fetches the lineage's working-set record from the
// disk tier, decoded — usually straight from the store's in-memory
// sidecar cache, so a prefetched restore pays no extra file read. nil
// means no usable record — missing, or corrupt and therefore dropped —
// which arms recording on the coming invocation; it is never an error.
func (n *Node) loadWorkingSet(name string, id uint64) []uint64 {
	// Fault point: the sidecar corrupts on read. The injected path
	// re-reads the raw bytes, flips a bit, and runs the real decode so
	// the CRC catches the damage exactly as a torn disk read would; the
	// restore degrades to on-demand faulting.
	if n.cfg.Faults.Fire(fault.PointWSCorrupt) {
		n.count(metrics.CtrFaultsInjected, 1)
		data, err := n.cfg.SnapStore.GetWorkingSet(name)
		if err != nil {
			return nil
		}
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x80
		if _, derr := snapshot.DecodeWorkingSet(data); derr == nil {
			return nil // bit flip survived the CRC? drop the record anyway
		}
		n.count(metrics.CtrWSRecordsCorrupt, 1)
		n.event(trace.KindWorkingSet, id, name, "corrupt record dropped; restoring on demand")
		return nil
	}
	ws, ok := n.cfg.SnapStore.GetWorkingSetPages(name)
	if !ok {
		return nil
	}
	return ws
}

// harvestWorkingSet runs after a successful lukewarm invocation, while
// the UC's address space still holds the run's dirty set (resume
// writes plus invocation writes — exactly the fault storm a later
// restore would pay). With no record it persists one; with a record it
// measures coverage and union-merges when drift exceeds an eighth of
// the recorded set, so records grow toward the lineage's true working
// set and never thrash on per-invocation noise. Every failure path is
// silent: the sidecar is an optimization, not state.
func (n *Node) harvestWorkingSet(mu *managedUC, key string, entry *fnEntry, id uint64) {
	st := n.cfg.SnapStore
	if st == nil {
		return
	}
	observed := mu.u.Space().DirtyPages()
	if len(observed) == 0 {
		return
	}
	name := "fn/" + key
	if len(entry.ws) == 0 {
		data, err := snapshot.EncodeWorkingSet(observed)
		if err != nil || st.PutWorkingSet(name, data) != nil {
			return
		}
		entry.ws = observed
		n.count(metrics.CtrWSRecordsRecorded, 1)
		if n.cfg.Tracer != nil {
			n.event(trace.KindWorkingSet, id, name, fmt.Sprintf("recorded %d pages", len(observed)))
		}
		return
	}
	misses := wsMissCount(observed, entry.ws)
	n.count(metrics.CtrWSCoverageHits, int64(len(observed)-misses))
	n.count(metrics.CtrWSCoverageMisses, int64(misses))
	if misses <= len(entry.ws)/8 {
		return
	}
	merged := snapshot.MergeWorkingSets(entry.ws, observed)
	data, err := snapshot.EncodeWorkingSet(merged)
	if err != nil || st.PutWorkingSet(name, data) != nil {
		return
	}
	entry.ws = merged
	n.count(metrics.CtrWSRecordsMerged, 1)
	if n.cfg.Tracer != nil {
		n.event(trace.KindWorkingSet, id, name, fmt.Sprintf("merged %d misses into %d-page record", misses, len(merged)))
	}
}

// wsMissCount counts pages in observed absent from ws (both sorted
// ascending) — the drift a record failed to cover.
func wsMissCount(observed, ws []uint64) int {
	misses, j := 0, 0
	for _, page := range observed {
		for j < len(ws) && ws[j] < page {
			j++
		}
		if j >= len(ws) || ws[j] != page {
			misses++
		}
	}
	return misses
}

// PromoteLineage restores one lineage from the disk tier without
// serving a request — the boot-time prewarm. Already-resident lineages
// are left untouched. name is the tier key ("fn/<key>").
func (n *Node) PromoteLineage(p *sim.Proc, name string) error {
	if n.residentSnapshot(name) != nil {
		return nil
	}
	_, err := n.promote(p, name, 0, metrics.CtrTierPromotionsPrewarm)
	return err
}

// FlushSnapshots demotes every resident function snapshot into the
// disk tier without deleting it — the graceful-drain persistence pass.
// Returns how many entries were flushed (unchanged content re-flushes
// are metadata-only in the store).
func (n *Node) FlushSnapshots(p *sim.Proc) int {
	count := 0
	for _, entry := range n.fnSnaps {
		if n.demoteSnapshot(p, entry.snap) {
			count++
		}
	}
	return count
}

// DeployIdle deploys a UC from the base runtime snapshot and leaves it
// idle (no function imported) — the Table 3 density and creation-rate
// unit of work.
func (n *Node) DeployIdle(p *sim.Proc) (*uc.UC, error) {
	e := &env{n: n, p: p}
	host := &ucNetHost{Host: hypercall.NewStubHost(), n: n, port: new(int)}
	u, err := uc.Deploy(n.runtimeSnap, host, e)
	if err != nil {
		return nil, err
	}
	n.count(metrics.CtrUCsDeployed, 1)
	n.countReseed(u, PathWarm)
	return u, nil
}
