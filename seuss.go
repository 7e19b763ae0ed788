// Package seuss is a library reproduction of "SEUSS: Skip Redundant
// Paths to Make Serverless Fast" (Cadden et al., EuroSys 2020).
//
// SEUSS deploys serverless functions from unikernel snapshots: a
// function runs inside a unikernel context (UC) — interpreter + library
// OS in one flat address space — whose instantaneous state can be
// captured black-box as an immutable snapshot and redeployed with a
// shallow page-table copy. Snapshot stacks share the interpreter image
// across every function; anticipatory optimization pre-executes likely
// paths before capture, shrinking both diffs and start times.
//
// This package is the public facade. The mechanisms underneath are real
// (hardware-style page tables with CoW over simulated frames, a real
// mini-JavaScript interpreter whose heap lives in UC pages); time is
// virtual, driven by a deterministic discrete-event engine calibrated
// against the paper's measurements. See DESIGN.md for the full
// substitution map.
//
// Quick start:
//
//	s := seuss.New()
//	node, _ := s.NewNode(seuss.NodeDefaults())
//	inv, _ := node.InvokeSync("alice/hello",
//	    `function main(args) { return {msg: "hello " + args.name}; }`,
//	    `{"name": "seuss"}`)
//	fmt.Println(inv.Path, inv.Latency, inv.Output)
package seuss

import (
	"io"
	"time"

	"seuss/internal/cluster"
	"seuss/internal/core"
	"seuss/internal/entropy"
	"seuss/internal/faas"
	"seuss/internal/fault"
	"seuss/internal/metrics"
	"seuss/internal/policy"
	"seuss/internal/sched"
	"seuss/internal/shardpool"
	"seuss/internal/sim"
	"seuss/internal/snapstore"
	"seuss/internal/trace"
	"seuss/internal/workload"
)

// Simulation owns the virtual clock and event engine every component
// shares. All latencies reported by this package are virtual time.
type Simulation struct {
	eng *sim.Engine
}

// New returns a fresh simulation with the clock at zero.
func New() *Simulation {
	return &Simulation{eng: sim.NewEngine()}
}

// Clock returns the current virtual time.
func (s *Simulation) Clock() time.Duration { return time.Duration(s.eng.Now()) }

// Run drains all pending events, advancing virtual time to completion.
func (s *Simulation) Run() { s.eng.Run() }

// Engine exposes the underlying event engine for advanced scheduling.
func (s *Simulation) Engine() *sim.Engine { return s.eng }

// Task is a simulated thread of control (a client worker, a burst
// request). Blocking calls made through a Task suspend it in virtual
// time.
type Task struct {
	p *sim.Proc
}

// Sleep suspends the task for d of virtual time.
func (t *Task) Sleep(d time.Duration) { t.p.Sleep(d) }

// Now returns the current virtual time.
func (t *Task) Now() time.Duration { return time.Duration(t.p.Now()) }

// Spawn starts fn as a simulated task. It runs when the simulation
// runs.
func (s *Simulation) Spawn(name string, fn func(t *Task)) {
	s.eng.Go(name, func(p *sim.Proc) { fn(&Task{p: p}) })
}

// ---- Functions ----

// Function describes a serverless function to the platform: its unique
// key (client account + name), its MiniJS source, and — for the Linux
// container baseline, which does not interpret MiniJS — its modeled
// CPU and IO demands.
type Function = workload.Spec

// NOP returns the i-th logically unique NOP JavaScript function, the
// workload of the microbenchmarks and throughput experiments.
func NOP(i int) Function { return workload.NOPSpec(i) }

// IOBound returns a function blocking on an external HTTP endpoint.
func IOBound(key, url string, block time.Duration) Function {
	return workload.IOSpec(key, url, block)
}

// NOPSource is the single-line NOP function source.
const NOPSource = workload.NOPSource

// ---- Compute node ----

// NodeConfig parameterizes a SEUSS compute node.
type NodeConfig = core.Config

// NodeDefaults returns the paper's node configuration: 16 cores, 88 GB
// memory, network and interpreter anticipatory optimizations enabled.
func NodeDefaults() NodeConfig { return core.DefaultConfig() }

// NewEntropySource returns a concurrency-safe deploy-entropy source
// seeded from the process boot generation, for NodeConfig.Entropy: a
// live daemon's clones then diverge across binary restarts too, not
// just within one process. Leave Entropy nil for replayable runs —
// divergence between clones is guaranteed either way by the deploy
// generation (DESIGN.md §14).
func NewEntropySource() func() uint64 {
	return entropy.NewSharedSource(entropy.BootGeneration())
}

// Node is a SEUSS OS compute node: snapshot cache, UC cache, and the
// cold/warm/hot invocation paths.
type Node struct {
	sim  *Simulation
	node *core.Node
}

// NewNode boots a node: unikernel + interpreter + invocation driver,
// anticipatory optimizations per the config, base runtime snapshot
// captured and cached.
func (s *Simulation) NewNode(cfg NodeConfig) (*Node, error) {
	n, err := core.NewNode(s.eng, cfg)
	if err != nil {
		return nil, err
	}
	return &Node{sim: s, node: n}, nil
}

// Invocation is the result of one function invocation.
type Invocation struct {
	// RequestID is the invocation's process-unique request ID; the
	// node's trace carries it on the matching invoke span, so a result
	// correlates with its timeline events.
	RequestID uint64
	// Path is "cold", "warm", "hot", or "lukewarm" (a disk-tier
	// restore that skipped interpreter replay).
	Path string
	// Output is the driver's JSON response.
	Output string
	// Latency is the node-side service time in virtual time.
	Latency time.Duration
}

// Invoke runs a function on the node's default runtime from within a
// simulated task.
func (n *Node) Invoke(t *Task, key, source, args string) (Invocation, error) {
	return n.InvokeRuntime(t, "", key, source, args)
}

// InvokeRuntime runs a function on a specific interpreter runtime
// ("nodejs", "python"; "" = the node's default). The runtime must be
// listed in NodeConfig.Runtimes.
func (n *Node) InvokeRuntime(t *Task, runtime, key, source, args string) (Invocation, error) {
	res, err := n.node.Invoke(t.p, core.Request{Key: key, Source: source, Args: args, Runtime: runtime})
	if err != nil {
		return Invocation{}, err
	}
	return Invocation{RequestID: res.ID, Path: res.Path.String(), Output: res.Output, Latency: res.Latency}, nil
}

// InvokeSync is a convenience for sequential use: it runs the
// invocation as a task on the calling goroutine and the simulation
// until it completes.
func (n *Node) InvokeSync(key, source, args string) (Invocation, error) {
	var inv Invocation
	var err error
	n.sim.eng.RunProc("invoke", func(p *sim.Proc) {
		inv, err = n.Invoke(&Task{p: p}, key, source, args)
	})
	return inv, err
}

// NodeStats reports the node's counters — core.Stats, a view of the
// node's event ledger — and its current cache and memory occupancy.
type NodeStats struct {
	core.Stats
	CachedSnapshots int
	IdleUCs         int
	MemoryUsedBytes int64
}

// Stats returns current counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Stats:           n.node.Stats(),
		CachedSnapshots: n.node.CachedSnapshots(),
		IdleUCs:         n.node.IdleUCs(),
		MemoryUsedBytes: n.node.MemStats().BytesInUse,
	}
}

// ---- Sharded node pool ----

// PoolConfig parameterizes a sharded node pool.
type PoolConfig struct {
	// Shards is the shard count (default: the host's CPU count).
	Shards int
	// Node configures every shard identically; MemoryBytes is the
	// pool-wide budget, divided evenly across shards.
	Node NodeConfig
	// DisableWorkStealing pins each function to its hash-owner shard
	// (exactly reproducible per-shard sequences, no overflow path).
	DisableWorkStealing bool
	// FaultSeed / FaultRate enable deterministic fault injection: each
	// registered fault point fires with probability FaultRate, decided
	// by a per-shard injector derived from FaultSeed. Rate 0 disables
	// injection entirely (zero overhead).
	FaultSeed int64
	FaultRate float64
}

// FaultPoint is one registered fault-injection point: its name (the
// value fault schedules and traces use) and what firing it does.
type FaultPoint struct {
	Point       string
	Description string
}

// FaultPoints lists every registered fault-injection point in sorted
// order with its registry description — the roster behind FaultRate
// injection and the CI fault matrix. Front doors surface it so
// operators can see what a given seed/rate can inject.
func FaultPoints() []FaultPoint {
	pts := fault.Points()
	out := make([]FaultPoint, len(pts))
	for i, pt := range pts {
		out[i] = FaultPoint{Point: string(pt), Description: fault.Describe(pt)}
	}
	return out
}

// ErrOverloaded is returned by a NodePool invocation shed because its
// shard's queue stayed full past AdmitDeadline. The request never ran;
// retrying later is safe.
var ErrOverloaded = shardpool.ErrOverloaded

// AdmitDeadline is how long a NodePool invocation waits for room in a
// full shard queue before it is shed with ErrOverloaded.
const AdmitDeadline = shardpool.AdmitDeadline

// NodePool is a shared-nothing pool of compute shards behind one front
// door. Each shard is an independent (engine, memory store, node)
// triple hydrated from a single encoded base-runtime snapshot, owned by
// its own goroutine — so InvokeSync is safe to call from any number of
// goroutines concurrently, and a multicore host actually runs
// multicore. Requests route to shards by function-key hash (preserving
// hot/warm locality); a backed-up shard's requests overflow to a steal
// queue any idle shard may serve.
//
// Unlike Node, a NodePool is not bound to a Simulation: each shard owns
// a private virtual clock, and reported latencies are per-shard virtual
// time. Per-shard execution is deterministic; cross-shard ordering is
// not.
type NodePool struct {
	pool *shardpool.Pool
}

// NewNodePool hydrates and starts a pool. Call Close when done.
func NewNodePool(cfg PoolConfig) (*NodePool, error) {
	p, err := shardpool.New(shardpool.Config{
		Shards:              cfg.Shards,
		Node:                cfg.Node,
		DisableWorkStealing: cfg.DisableWorkStealing,
		Faults:              fault.Config{Seed: cfg.FaultSeed, Rate: cfg.FaultRate},
	})
	if err != nil {
		return nil, err
	}
	return &NodePool{pool: p}, nil
}

// PoolInvocation is one pool invocation's outcome.
type PoolInvocation struct {
	Invocation
	// Shard identifies the serving shard.
	Shard int
	// Stolen reports the request overflowed its owner shard.
	Stolen bool
}

// InvokeRuntime services one invocation on a named interpreter runtime
// ("" = the pool's default). Safe for concurrent use.
func (p *NodePool) InvokeRuntime(runtime, key, source, args string) (PoolInvocation, error) {
	res, err := p.pool.Invoke(core.Request{Key: key, Source: source, Args: args, Runtime: runtime})
	if err != nil {
		return PoolInvocation{}, err
	}
	return PoolInvocation{
		Invocation: Invocation{RequestID: res.RequestID, Path: res.Path.String(), Output: res.Output, Latency: res.Latency},
		Shard:      res.Shard,
		Stolen:     res.Stolen,
	}, nil
}

// PoolStats aggregates node counters across every shard; each shard's
// contribution is snapshotted inside its owning goroutine, never
// mid-invocation.
type PoolStats struct {
	NodeStats
	// RoutingStats is what the front door did: requests stolen, rerouted
	// or requeued, and the breaker trips and stalls behind them.
	shardpool.RoutingStats
	// Breakers is each shard's circuit-breaker state, indexed by shard.
	Breakers []string
	// Shards is the per-shard breakdown.
	Shards []ShardStats
}

// ShardStats is one shard's consistent snapshot.
type ShardStats = shardpool.ShardStats

// Stats aggregates counters across the pool.
func (p *NodePool) Stats() (PoolStats, error) {
	st, err := p.pool.Stats()
	if err != nil {
		return PoolStats{}, err
	}
	return PoolStats{
		NodeStats: NodeStats{
			Stats:           st.Node,
			CachedSnapshots: st.CachedSnapshots,
			IdleUCs:         st.IdleUCs,
			MemoryUsedBytes: st.MemoryUsedBytes,
		},
		RoutingStats: st.RoutingStats,
		Breakers:     p.pool.BreakerStates(),
		Shards:       st.Shards,
	}, nil
}

// Metrics returns the pool's merged metrics snapshot: per-shard
// lock-free recorders plus pool-level routing counters, aggregated at
// read time. Unlike Stats, the read never waits behind a busy shard.
// Render it with WriteMetricsText.
func (p *NodePool) Metrics() Metrics { return p.pool.Metrics() }

// Shards returns the shard count.
func (p *NodePool) Shards() int { return p.pool.Shards() }

// Prewarm promotes up to max snapshot stacks (0 = all) from the pool's
// snapshot store back into shard memory, most-recently-used first, so a
// restarted pool serves its hot lineages warm instead of lukewarm. It
// returns how many function lineages were restored; without a store it
// is a no-op.
func (p *NodePool) Prewarm(max int) (int, error) { return p.pool.Prewarm(max) }

// FlushSnapshots demotes every resident function snapshot on every
// shard to the pool's snapshot store and syncs its manifest — the
// graceful-drain counterpart to Prewarm. It returns how many snapshots
// were written; without a store it is a no-op.
func (p *NodePool) FlushSnapshots() (int, error) { return p.pool.FlushSnapshots() }

// SnapshotStore returns the disk tier shared by the pool's shards, or
// nil if the pool runs memory-only.
func (p *NodePool) SnapshotStore() *SnapshotStore { return p.pool.SnapStore() }

// PolicyTick advances every shard's virtual clock by advance and runs
// one lifecycle-reaper pass on each, returning the aggregate. Drive it
// from a wall-clock ticker: invocations only advance a shard's virtual
// clock by their own latencies, so idle time must be modelled
// explicitly for keep-alive windows to lapse. A no-op without
// PoolConfig.Node.Policy.
func (p *NodePool) PolicyTick(advance time.Duration) (LifecycleTickStats, error) {
	return p.pool.PolicyTick(advance)
}

// Pool exposes the underlying shard pool for advanced use.
func (p *NodePool) Pool() *shardpool.Pool { return p.pool }

// Close stops the shard goroutines; quiesce callers first.
func (p *NodePool) Close() { p.pool.Close() }

// ---- Lifecycle policy ----

// LifecyclePolicy decides per-function keep-alive, scale-to-zero, and
// predictive prewarm. Build one with NewLifecyclePolicy, attach it via
// PoolConfig.Node.Policy (each shard gets a private clone) and drive
// the reaper with NodePool.PolicyTick.
type LifecyclePolicy = policy.Policy

// LifecycleTickStats summarizes one reaper pass.
type LifecycleTickStats = core.TickStats

// NewLifecyclePolicy builds a policy from its flag spelling: "none",
// "fixed", or "hybrid". keepalive overrides the fixed window (or the
// hybrid policy's maximum); 0 keeps the default. An empty name returns
// nil (lifecycle management disabled).
func NewLifecyclePolicy(name string, keepalive time.Duration) (LifecyclePolicy, error) {
	return policy.New(name, keepalive)
}

// ---- Snapshot disk tier ----

// SnapshotStore is the content-addressed on-disk snapshot tier.
// Evicted snapshot stacks demote into it instead of being destroyed;
// later invocations of the same function promote them back (the
// "lukewarm" path — slower than warm, far faster than cold), and a
// restarted process prewarms from it. Entries are CRC-verified on read,
// written atomically, and bounded by a byte-capacity LRU whose
// evictions cascade through snapshot-stack dependencies. Safe for
// concurrent use; one store may back every shard of a pool.
type SnapshotStore = snapstore.Store

// OpenSnapshotStore opens (creating if absent) a snapshot store rooted
// at dir, recovering from any earlier crash: partial temp files are
// deleted, orphaned snapshot files are re-adopted, corrupt ones are
// dropped. capBytes bounds the store (<0 = unlimited, 0 = reject all
// writes). Attach it via NodeConfig.SnapStore.
func OpenSnapshotStore(dir string, capBytes int64) (*SnapshotStore, error) {
	return snapstore.Open(dir, capBytes)
}

// ---- Platform (OpenWhisk-like cluster) ----

// Cluster is the full FaaS platform: control plane plus one compute
// backend (SEUSS through the shim, or the Linux container invoker).
type Cluster struct {
	sim     *Simulation
	cluster *faas.Cluster
}

// NewSeussCluster assembles the platform over a SEUSS node.
func (s *Simulation) NewSeussCluster(cfg NodeConfig) (*Cluster, error) {
	n, err := core.NewNode(s.eng, cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{sim: s, cluster: faas.NewCluster(faas.NewSeussBackend(n))}, nil
}

// LinuxConfig parameterizes the stock OpenWhisk Linux backend.
type LinuxConfig = faas.LinuxConfig

// NewLinuxCluster assembles the platform over the Linux container
// invoker.
func (s *Simulation) NewLinuxCluster(cfg LinuxConfig) *Cluster {
	return &Cluster{sim: s, cluster: faas.NewCluster(faas.NewLinuxBackend(s.eng, cfg))}
}

// Platform exposes the underlying cluster for experiment harnesses.
func (c *Cluster) Platform() *faas.Cluster { return c.cluster }

// ---- Benchmark front door ----

// Trial is the paper's load-generation benchmark: N invocations over a
// set of functions, issued by C closed-loop workers in a pre-computed
// random order.
type Trial = workload.Trial

// TrialResult is a trial's outcome.
type TrialResult = workload.TrialResult

// Burst is the §7 burst-resiliency experiment configuration.
type Burst = workload.Burst

// Timeline is the per-request scatter data of the burst figures.
type Timeline = metrics.Timeline

// RunTrial executes a trial against the cluster.
func (c *Cluster) RunTrial(t Trial) TrialResult {
	return t.Run(c.sim.eng, c.cluster)
}

// RunBurst executes a burst experiment against the cluster.
func (c *Cluster) RunBurst(b Burst) *Timeline {
	return b.Run(c.sim.eng, c.cluster)
}

// Summarize computes latency percentiles (Figure 5's quantiles).
func Summarize(samples []time.Duration) metrics.Summary {
	return metrics.Summarize(samples)
}

// ---- DR-SEUSS (distributed snapshot cache, the paper's §9) ----

// DistConfig parameterizes a DR-SEUSS deployment.
type DistConfig = cluster.Config

// DistStats reports distributed-cache behavior.
type DistStats = cluster.Stats

// LocalityPlacer is the default placement: route to the least-loaded
// snapshot holder and fall back to lukewarm tier holders. With
// Replicate set (it needs DistConfig.SnapDir), a holder saturated past
// its peers replicates instead, by fetching only the missing layers
// over the fabric.
type LocalityPlacer = sched.LocalityPlacer

// DistCluster is a multi-node SEUSS deployment with a global snapshot
// directory: a function is cold at most once per cluster.
type DistCluster struct {
	sim *Simulation
	c   *cluster.Cluster
}

// NewDistCluster boots a DR-SEUSS deployment.
func (s *Simulation) NewDistCluster(cfg DistConfig) (*DistCluster, error) {
	c, err := cluster.New(s.eng, cfg)
	if err != nil {
		return nil, err
	}
	return &DistCluster{sim: s, c: c}, nil
}

// Invoke runs a function somewhere in the cluster, returning the result
// and the serving node's ID.
func (d *DistCluster) Invoke(t *Task, key, source, args string) (Invocation, int, error) {
	res, node, err := d.c.Invoke(t.p, core.Request{Key: key, Source: source, Args: args})
	if err != nil {
		return Invocation{}, node, err
	}
	return Invocation{RequestID: res.ID, Path: res.Path.String(), Output: res.Output, Latency: res.Latency}, node, nil
}

// InvokeSync is the sequential convenience form.
func (d *DistCluster) InvokeSync(key, source, args string) (Invocation, int, error) {
	var inv Invocation
	var node int
	var err error
	d.sim.eng.RunProc("dist", func(p *sim.Proc) {
		inv, node, err = d.Invoke(&Task{p: p}, key, source, args)
	})
	return inv, node, err
}

// Stats returns cluster counters.
func (d *DistCluster) Stats() DistStats { return d.c.Stats() }

// Holders returns which nodes hold a function's snapshot.
func (d *DistCluster) Holders(key string) []int { return d.c.Holders(key) }

// Nodes returns the member count.
func (d *DistCluster) Nodes() int { return len(d.c.Members()) }

// ---- Metrics ----

// Metrics is a point-in-time reading of the pre-registered counters
// and latency histograms: invocations by cold/warm/hot path, cache
// hit/miss pairs (snapshot stack, idle UCs, deploy kits), UC
// lifecycle, containment, routing, and per-path latency histograms.
type Metrics = metrics.Snapshot

// MetricsRecorder is the lock-free collection point metrics flow into:
// a fixed array of atomics, nil-safe, allocation-free to record into.
// Attach one via NodeConfig.Metrics on a standalone node (a NodePool
// wires its own, one per shard) and read it with its Snapshot method.
type MetricsRecorder = metrics.Recorder

// NewMetricsRecorder returns an empty recorder.
func NewMetricsRecorder() *MetricsRecorder { return metrics.NewRecorder() }

// WriteMetricsText renders a metrics snapshot in Prometheus text
// exposition format (version 0.0.4) — the payload cmd/seuss-node
// serves at /metrics.
func WriteMetricsText(w io.Writer, m Metrics) error {
	return metrics.WritePrometheus(w, m)
}

// ---- Tracing ----

// Trace records a node's structured event timeline; export it as JSON
// lines or Chrome trace-event format (chrome://tracing / Perfetto).
type Trace = trace.Tracer

// NewTrace returns a trace recorder retaining at most max events
// (0 = unlimited). Attach it via NodeConfig.Tracer.
func NewTrace(max int) *Trace { return trace.New(max) }
