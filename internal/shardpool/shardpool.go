// Package shardpool turns the single-node SEUSS reproduction into a
// concurrency-safe multi-engine compute node: a shared-nothing pool of
// N shards behind one front door.
//
// Snapshot-restore systems scale out by hydrating many independent
// instances from one captured image. The pool does exactly that with
// the existing snapshot codec: the base runtime image is booted and
// anticipatorily optimized ONCE on a template store, captured, and
// exported to bytes; each shard then materializes the encoded diff
// into its own private mem.Store. Boot + AO cost is paid once per
// process, never per shard.
//
// Each shard is a complete, independent (sim.Engine, mem.Store,
// core.Node) triple owned by a dedicated OS goroutine. Shards share no
// mutable state — no lock protects the serving path, because nothing
// is shared to protect. Requests reach a shard through its queue; the
// shard goroutine runs one request at a time as a process on itself
// (sim.Engine.RunProc: no goroutine or channel per request) and drives
// its engine to completion, so the engine ownership contract (see
// sim.Engine) holds by construction.
//
// Routing: a request's function key hashes to its owner shard, so a
// function's snapshot and idle UCs stay shard-local and the hot/warm
// paths keep their locality. When an owner's queue is backed up, the
// request is instead published to a shared overflow queue that any
// idle shard may steal from — skewed keys spill onto idle cores at the
// cost of going cold on the thief (it captures its own function
// snapshot, so repeated spill warms up too).
//
// Determinism: each shard's engine is a deterministic discrete-event
// simulation with its own virtual clock and seed (cfg.Node.Seed +
// shard ID). Given the same per-shard request sequence, a shard
// reports identical virtual latencies run over run. Cross-shard
// ordering — which shard's wall-clock work finishes first, how stolen
// requests interleave — is explicitly NOT part of the deterministic
// contract.
//
// Failure containment: every shard carries a circuit breaker
// (closed → open → half-open). Consecutive contained faults on a
// shard open its breaker; while open, the shard's keys divert over
// the existing work-stealing overflow queue to healthy shards and the
// sick shard stops stealing, so it drains in place. After a bounded
// number of diverted requests one probe is let through; success closes
// the breaker, failure re-opens it. An injected shard stall requeues
// the request to another shard instead of failing it, so a fault storm
// degrades to re-routing, not to dropped requests.
package shardpool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seuss/internal/core"
	"seuss/internal/fault"
	"seuss/internal/mem"
	"seuss/internal/metrics"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/snapshot"
	"seuss/internal/snapstore"
	"seuss/internal/uc"
)

// errClosed is returned for requests submitted after Close.
var errClosed = errors.New("shardpool: pool closed")

// ErrOverloaded is returned when a request's shard queue stays full for
// AdmitDeadline. Contained and counted: the pool sheds the request
// instead of holding its caller, and the caller may retry.
var ErrOverloaded = errors.New("shardpool: overloaded")

// AdmitDeadline bounds how long submit waits for room in a full shard
// queue. A full queue is 128 requests, which a healthy shard drains in
// tens of milliseconds (a cold invocation is about 150 µs of wall
// time), so a request not admitted within a second is queued behind a
// stalled shard or an offered load beyond capacity. Shedding it then
// keeps the front door answering.
const AdmitDeadline = time.Second

// errShardStalled is returned when a stalled shard cannot re-route a
// request (stealing disabled, or the requeue budget is exhausted in a
// pool-wide fault storm). Contained: a retry may land on a healthy
// shard.
var errShardStalled = errors.New("shardpool: shard stalled")

// Config parameterizes a pool.
type Config struct {
	// Shards is the shard count (default: runtime.NumCPU()).
	Shards int
	// Node configures every shard's node identically. MemoryBytes is
	// the WHOLE pool's budget; it is divided evenly across shards
	// (shared-nothing, so each shard OOMs independently). Seed is the
	// base seed; shard i runs with Seed+i. Node.SnapStore, when set, is
	// shared by every shard — the store is internally synchronized and
	// reads are single-flight, the one deliberate exception to the
	// shared-nothing rule (disk, unlike the engines, is one device).
	Node core.Config
	// DisableWorkStealing pins every request to its hash-owner shard.
	// Skewed keys then serialize on their owner — useful when per-shard
	// request sequences must be exactly reproducible. Breaker diversion
	// and stall requeueing also ride the overflow queue, so disabling
	// stealing disables re-routing too (sick shards then serve their
	// own keys, and stalls surface as ErrShardStalled).
	DisableWorkStealing bool
	// Faults configures deterministic fault injection. Each shard
	// derives a private injector (Faults.Child(shard)) shared with its
	// node, so shard-level points (stalls) and node-level points (UC
	// crashes, proxy drops) land in one per-shard trace. The zero
	// config injects nothing at zero overhead.
	Faults fault.Config

	// Only tests move these. stealThreshold is the owner-queue depth at
	// or beyond which a request overflows to the shared steal queue
	// (default 2); breakerThreshold the consecutive contained failures
	// that open a shard's circuit breaker (default 3; -1 disables
	// breakers); breakerProbeAfter the diverted requests an open breaker
	// absorbs before one probe goes through half-open (default 4).
	stealThreshold, breakerThreshold, breakerProbeAfter int
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.stealThreshold == 0 {
		c.stealThreshold = 2
	}
	if c.breakerThreshold == 0 {
		c.breakerThreshold = 3
	}
	if c.breakerProbeAfter == 0 {
		c.breakerProbeAfter = 4
	}
	// Normalize the node config here so per-shard derivations below
	// (memory split, runtime list) work from the defaulted values.
	c.Node = c.Node.Normalized()
	return c
}

// Result is one invocation's outcome, annotated with where it ran.
type Result struct {
	// RequestID is the invocation's process-unique request ID, carried
	// on its trace span (core.Result.ID).
	RequestID uint64
	// Path is the invocation path taken ("cold", "warm", "hot",
	// "lukewarm").
	Path core.Path
	// Output is the driver's JSON response.
	Output string
	// Latency is the shard-side service time in that shard's virtual
	// clock.
	Latency time.Duration
	// Shard is the shard that served the request.
	Shard int
	// Stolen reports whether the request overflowed its owner shard
	// and was served by a thief.
	Stolen bool
}

// ShardStats is one shard's state, snapshotted inside its owning
// goroutine (never read mid-invocation).
type ShardStats struct {
	Shard int
	// Counters is the shard's ledger — the recorder its node, breaker and
	// stall point count into — and Node the node-level view of it.
	Counters        metrics.Counters
	Node            core.Stats
	CachedSnapshots int
	IdleUCs         int
	Mem             mem.Stats
	Clock           time.Duration
	// Breaker is the shard's circuit-breaker state ("closed", "open",
	// "half-open").
	Breaker string
}

// RoutingStats is the pool-level view of the routing counters.
type RoutingStats struct {
	// Stolen counts requests served off their owner shard.
	Stolen int64
	// BreakerTrips sums closed→open transitions across shards.
	BreakerTrips int64
	// Rerouted counts requests diverted away from an open breaker.
	Rerouted int64
	// Requeued counts requests a stalled shard pushed back to the
	// overflow queue for a healthy shard to serve.
	Requeued int64
	// Stalls counts injected shard stalls.
	Stalls int64
	// Overloaded counts requests refused with ErrOverloaded.
	Overloaded int64
}

// Stats is the pool-level aggregate.
type Stats struct {
	// Counters sums the per-shard ledgers and the pool's own routing
	// counters; Node and RoutingStats are views of it.
	Counters metrics.Counters
	Node     core.Stats
	RoutingStats
	// CachedSnapshots / IdleUCs sum the per-shard cache sizes.
	CachedSnapshots int
	IdleUCs         int
	// MemoryUsedBytes sums per-shard physical memory in use.
	MemoryUsedBytes int64
	// Shards is the per-shard breakdown.
	Shards []ShardStats
}

// ---- Circuit breaker ----

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

var breakerStateNames = [...]string{"closed", "open", "half-open"}

// breaker is one shard's circuit breaker. It is the only mutable state
// on the serving path shared between client goroutines (submit) and
// the shard goroutine (serve); a plain mutex guards it — the critical
// sections are a handful of integer ops.
//
// closed: requests route to the shard; `threshold` consecutive
// contained failures open it. open: requests divert to the overflow
// queue; after `probeAfter` diversions the next owned request is let
// through as a half-open probe. half-open: the probe's outcome decides
// — success closes, failure re-opens.
type breaker struct {
	mu         sync.Mutex
	threshold  int
	probeAfter int
	state      int
	failures   int               // consecutive contained failures while closed
	diverted   int               // requests diverted while open
	rec        *metrics.Recorder // shard recorder; counts trips (nil ok)
}

func newBreaker(threshold, probeAfter int, rec *metrics.Recorder) *breaker {
	return &breaker{threshold: threshold, probeAfter: probeAfter, rec: rec}
}

// disabled reports whether breaker logic is off (threshold < 0).
func (b *breaker) disabled() bool { return b.threshold < 0 }

// route decides where an owned request goes: allow=false diverts it to
// the overflow queue; probe marks the request as the half-open probe
// (it must reach the owner directly, bypassing the steal spill).
func (b *breaker) route() (allow, probe bool) {
	if b.disabled() {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		b.diverted++
		if b.diverted >= b.probeAfter {
			b.state = breakerHalfOpen
			return true, true
		}
		return false, false
	default: // half-open: one probe is already in flight
		return false, false
	}
}

// recordSuccess notes a request the shard served cleanly.
func (b *breaker) recordSuccess() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state != breakerClosed {
		b.state = breakerClosed
		b.diverted = 0
	}
}

// recordFailure notes a contained fault on the shard.
func (b *breaker) recordFailure() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen: // the probe failed: straight back to open
		b.state = breakerOpen
		b.diverted = 0
		b.rec.Inc(metrics.CtrBreakerTrips)
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.failures = 0
			b.diverted = 0
			b.rec.Inc(metrics.CtrBreakerTrips)
		}
	}
	// Failures while already open (stolen work served here) don't
	// re-trip; the breaker is already protecting the shard's keys.
}

// healthy reports whether the shard should take extra (stolen) work.
func (b *breaker) healthy() bool {
	if b.disabled() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed
}

// stateName returns the state's name.
func (b *breaker) stateName() string {
	if b.disabled() {
		return "disabled"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStateNames[b.state]
}

// request is one unit of work delivered to a shard goroutine: an
// invocation, or a control message.
type request struct {
	req core.Request
	// control, when set, makes this a control message: instead of
	// invoking, the owner goroutine runs the closure between invocations
	// — so it sees only quiescent shard state — and replies when it
	// returns. A control message is never stolen, rerouted, or stalled.
	// The closure hands its result back through what it captured; the
	// reply orders those writes before the submitter's reads.
	control  func(s *shard)
	requeues int // times a stalled shard pushed this request back
	reply    chan response
}

// reqPool recycles request descriptors and their reply channels across
// invocations — the front door's only steady-state allocations
// otherwise. A request is recycled ONLY after its response has been
// received: a request abandoned at shutdown may still get a late reply
// from a draining shard, so it is never reused.
var reqPool = sync.Pool{
	New: func() interface{} { return &request{reply: make(chan response, 1)} },
}

func getRequest() *request { return reqPool.Get().(*request) }

func putRequest(r *request) {
	r.req = core.Request{}
	r.control = nil
	r.requeues = 0
	reqPool.Put(r)
}

type response struct {
	res    core.Result
	err    error
	shard  int
	stolen bool
}

// queueDepth is each shard's request queue capacity; the shared
// overflow queue holds one shard's worth per shard.
const queueDepth = 128

// shard is one shared-nothing compute unit: engine + store + node,
// owned exclusively by its loop goroutine.
type shard struct {
	id      int
	pool    *Pool
	eng     *sim.Engine
	node    *core.Node
	reqs    chan *request
	faults  *fault.Injector // shared with the shard's node
	breaker *breaker
	// rec is the shard's private metrics recorder, shared with its node
	// (lock-free by construction: one writer goroutine for node-path
	// counters, atomics for the breaker). Never nil and never shared with
	// another shard, so it is also the shard's ledger: stats reads it.
	rec *metrics.Recorder
}

// Pool is the front door over N shards.
type Pool struct {
	cfg      Config
	shards   []*shard
	overflow chan *request
	quit     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	// rec holds pool-level (routing) counters; per-shard recorders are
	// summed with it on Stats() and Metrics().
	rec *metrics.Recorder
}

// New hydrates and starts a pool.
//
// The base runtime snapshot for every configured runtime is booted once
// on a throwaway template store, exported through the snapshot codec,
// and materialized into each shard's private store — the codec
// round-trip is the live hydration path, not a test fixture.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shardpool: invalid shard count %d", cfg.Shards)
	}

	// Template phase: pay boot + AO once, keep only the encoded bytes.
	runtimes := cfg.Node.Runtimes
	if len(runtimes) == 0 {
		runtimes = []string{"nodejs"}
	}
	tmpl := mem.NewStore(0) // unbounded scratch; discarded after export
	encoded := make(map[string][]byte, len(runtimes))
	for _, name := range runtimes {
		snap, err := core.BootRuntime(tmpl, cfg.Node, name)
		if err != nil {
			return nil, fmt.Errorf("shardpool: template: %w", err)
		}
		var buf bytes.Buffer
		if err := snap.Export(&buf); err != nil {
			return nil, fmt.Errorf("shardpool: export %s: %w", name, err)
		}
		encoded[name] = buf.Bytes()
	}

	p := &Pool{
		cfg:      cfg,
		overflow: make(chan *request, cfg.Shards*queueDepth),
		quit:     make(chan struct{}),
		rec:      metrics.NewRecorder(),
	}
	// The template boots drew their RNG seeds from host entropy like any
	// deploy path; account them at pool level — the template ran before
	// any shard recorder existed.
	p.rec.AddCounter(metrics.CtrReseedsBoot, int64(len(runtimes)))
	perShardMem := cfg.Node.MemoryBytes
	if perShardMem > 0 {
		perShardMem /= int64(cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		s, err := p.hydrateShard(i, perShardMem, encoded)
		if err != nil {
			return nil, err
		}
		p.shards = append(p.shards, s)
	}
	for _, s := range p.shards {
		p.wg.Add(1)
		go s.loop()
	}
	return p, nil
}

// hydrateShard materializes the encoded runtime images into a fresh
// store and builds the shard's node around them.
func (p *Pool) hydrateShard(id int, memBytes int64, encoded map[string][]byte) (*shard, error) {
	st := mem.NewStore(memBytes)
	snaps := make(map[string]*snapshot.Snapshot, len(encoded))
	for name, enc := range encoded {
		// Zero-copy decode: the diff aliases enc, which outlives the
		// Materialize below (it copies page bytes into the shard's own
		// frames). N shards hydrate from one wire image without N
		// intermediate copies.
		diff, err := snapshot.ImportBytes(enc)
		if err != nil {
			return nil, fmt.Errorf("shardpool: shard %d: import %s: %w", id, name, err)
		}
		snap, err := snapshot.Materialize(diff, st)
		if err != nil {
			return nil, fmt.Errorf("shardpool: shard %d: materialize %s: %w", id, name, err)
		}
		payload, err := uc.DecodePayload(diff.PayloadBytes)
		if err != nil {
			return nil, fmt.Errorf("shardpool: shard %d: payload %s: %w", id, name, err)
		}
		snap.SetPayload(payload)
		snaps[name] = snap
	}
	eng := sim.NewEngine()
	nodeCfg := p.cfg.Node
	nodeCfg.MemoryBytes = memBytes
	nodeCfg.Seed = p.cfg.Node.Seed + int64(id)
	// Give each shard a private child tracer: records stay uncontended
	// on the shard goroutine, and the caller's parent tracer still reads
	// the merged timeline. A nil parent yields a nil child (no-op).
	nodeCfg.Tracer = p.cfg.Node.Tracer.Child()
	// One lifecycle policy per shard: policies accumulate per-key
	// history (inter-arrival histograms), and sharing one instance
	// across shard goroutines would break the shared-nothing rule. The
	// key→shard hash keeps each key's history on one shard anyway.
	if p.cfg.Node.Policy != nil {
		nodeCfg.Policy = p.cfg.Node.Policy.Clone()
	}
	// One injector per shard, shared with its node: shard-level stalls
	// and node-level crashes land in a single replayable per-shard
	// trace, derived deterministically from the pool seed.
	inj := fault.New(p.cfg.Faults.Child(id))
	nodeCfg.Faults = inj
	// One recorder per shard, shared with its node and breaker; any
	// caller-supplied Node.Metrics is replaced — pool aggregates come
	// out of Pool.Metrics(), which merges the per-shard recorders.
	rec := metrics.NewRecorder()
	nodeCfg.Metrics = rec
	node, err := core.NewNodeFromSnapshots(eng, nodeCfg, st, snaps)
	if err != nil {
		return nil, fmt.Errorf("shardpool: shard %d: %w", id, err)
	}
	return &shard{
		id:      id,
		pool:    p,
		eng:     eng,
		node:    node,
		reqs:    make(chan *request, queueDepth),
		faults:  inj,
		breaker: newBreaker(p.cfg.breakerThreshold, p.cfg.breakerProbeAfter, rec),
		rec:     rec,
	}, nil
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.shards) }

// anyHealthy reports whether some shard other than `except` has a
// closed breaker — i.e. whether the overflow queue has a willing
// thief. Pass except = -1 to count every shard. Re-routing is only
// safe when this holds: sick shards do not steal, so publishing work
// to the overflow queue with no healthy shard would strand it.
func (p *Pool) anyHealthy(except int) bool {
	for i, s := range p.shards {
		if i != except && s.breaker.healthy() {
			return true
		}
	}
	return false
}

// shardFor routes a key to its owner shard via the scheduler layer's
// shared key-affinity hash (allocation-free 32-bit FNV-1a), so a key's
// owner is consistent with every other per-key router in the stack.
func (p *Pool) shardFor(key string) int {
	return sched.OwnerShard(key, len(p.shards))
}

// loop is a shard goroutine: it exclusively owns the shard's engine and
// node, serving its own queue with priority and stealing from the
// shared overflow queue when idle. A shard whose breaker is not closed
// stops stealing — it drains its own queue (including the half-open
// probe) but takes no diverted work, so a sick shard cannot re-capture
// the very requests its breaker re-routed.
func (s *shard) loop() {
	defer s.pool.wg.Done()
	for {
		// Own queue first: preserves hot/warm locality for owned keys
		// even when the overflow queue is non-empty.
		select {
		case r := <-s.reqs:
			s.serve(r, false)
			continue
		default:
		}
		if !s.breaker.healthy() {
			select {
			case r := <-s.reqs:
				s.serve(r, false)
			case <-s.pool.quit:
				return
			}
			continue
		}
		select {
		case r := <-s.reqs:
			s.serve(r, false)
		case r := <-s.pool.overflow:
			s.serve(r, true)
		case <-s.pool.quit:
			return
		}
	}
}

// serve runs one request to completion on the shard's engine. stolen
// marks requests picked off the overflow queue by a non-owner.
func (s *shard) serve(r *request, stolen bool) {
	if r.control != nil {
		r.control(s)
		r.reply <- response{shard: s.id}
		return
	}

	// Fault point: the shard stalls. The request is not dropped — it
	// requeues to the overflow queue for a healthy shard (the stall
	// counts against this shard's breaker), unless re-routing is
	// impossible, in which case the caller gets a contained error.
	if s.faults.Fire(fault.PointShardStall) {
		s.rec.Inc(metrics.CtrShardStalls)
		s.rec.Inc(metrics.CtrFaultsInjected)
		s.breaker.recordFailure()
		if !s.pool.cfg.DisableWorkStealing && r.requeues < 2*len(s.pool.shards) &&
			s.pool.anyHealthy(-1) {
			r.requeues++
			select {
			case s.pool.overflow <- r:
				s.pool.rec.Inc(metrics.CtrRequestsRequeued)
				return
			default:
				// Overflow full under a pool-wide storm; fail contained.
			}
		}
		r.reply <- response{err: fault.Contain(errShardStalled), shard: s.id, stolen: stolen}
		return
	}

	var res core.Result
	var err error
	s.eng.RunProc("invoke", func(p *sim.Proc) {
		res, err = s.node.Invoke(p, r.req)
	})
	if err != nil && fault.IsContained(err) {
		s.breaker.recordFailure()
	} else {
		s.breaker.recordSuccess()
	}
	if stolen {
		s.pool.rec.Inc(metrics.CtrRequestsStolen)
	}
	r.reply <- response{res: res, err: err, shard: s.id, stolen: stolen}
}

// submit routes a request: owner shard when its queue is shallow and
// its breaker closed; the shared overflow queue when the owner is
// backed up or its breaker is open (unless stealing is disabled). It
// never blocks the pool shut-down path, and an invocation waits for
// room in a full owner queue at most AdmitDeadline (control messages,
// which carry no client, wait as long as it takes).
func (p *Pool) submit(r *request, owner int) error {
	if p.closed.Load() {
		return errClosed
	}
	s := p.shards[owner]
	if !p.cfg.DisableWorkStealing && r.control == nil {
		allow, probe := s.breaker.route()
		switch {
		case !allow:
			// Open breaker: divert to a healthy shard over the
			// work-stealing path. With no healthy thief (1-shard pool,
			// pool-wide trip) fall through to the sick owner instead —
			// it still serves, possibly failing contained, and any
			// success it produces closes its breaker (self-healing via
			// fall-through traffic).
			if p.anyHealthy(owner) {
				select {
				case p.overflow <- r:
					p.rec.Inc(metrics.CtrRequestsRerouted)
					return nil
				default:
					// Overflow full; fall through to the owner.
				}
			}
		case probe:
			// The half-open probe must reach the owner itself — skip
			// the steal spill below.
		case len(s.reqs) >= p.cfg.stealThreshold:
			select {
			case p.overflow <- r:
				return nil
			default:
				// Overflow full too; fall through to the owner.
			}
		}
	}
	select {
	case s.reqs <- r:
		return nil
	default:
	}
	// The owner's queue is full. Only now arm a timer, so the common
	// path allocates nothing.
	var expired <-chan time.Time
	if r.control == nil {
		t := time.NewTimer(AdmitDeadline)
		defer t.Stop()
		expired = t.C
	}
	select {
	case s.reqs <- r:
		return nil
	case <-expired:
		p.rec.Inc(metrics.CtrRequestsOverloaded)
		return fault.Contain(ErrOverloaded)
	case <-p.quit:
		return errClosed
	}
}

// await blocks for a request's reply, bailing out if the pool shuts
// down underneath a still-queued request (replies are buffered, so a
// racing serve is never lost — it is drained here).
func (p *Pool) await(r *request) (response, error) {
	select {
	case resp := <-r.reply:
		return resp, nil
	case <-p.quit:
		select {
		case resp := <-r.reply:
			return resp, nil
		default:
			return response{}, errClosed
		}
	}
}

// Invoke services one invocation through the pool and reports where it
// ran. Safe for concurrent use from any number of goroutines.
func (p *Pool) Invoke(req core.Request) (Result, error) {
	r := getRequest()
	r.req = req
	if err := p.submit(r, p.shardFor(req.Key)); err != nil {
		// Rejected before enqueue: safe to recycle.
		putRequest(r)
		return Result{}, err
	}
	resp, err := p.await(r)
	if err != nil {
		// Abandoned in a queue at shutdown — never recycled (see reqPool).
		return Result{}, err
	}
	putRequest(r)
	if resp.err != nil {
		return Result{Shard: resp.shard, Stolen: resp.stolen}, resp.err
	}
	return Result{
		RequestID: resp.res.ID,
		Path:      resp.res.Path,
		Output:    resp.res.Output,
		Latency:   resp.res.Latency,
		Shard:     resp.shard,
		Stolen:    resp.stolen,
	}, nil
}

// control runs fn on each of the given shards, inside the shard's owning
// goroutine, and waits for all of them. The messages fan out before the
// first wait so one busy shard does not serialize the rest. On error
// the caller must not read what fn writes: a message abandoned at
// shutdown may still run.
func (p *Pool) control(shards []*shard, fn func(s *shard)) error {
	reqs := make([]*request, len(shards))
	for i, s := range shards {
		r := getRequest()
		r.control = fn
		if err := p.submit(r, s.id); err != nil {
			putRequest(r)
			return err
		}
		reqs[i] = r
	}
	for _, r := range reqs {
		if _, err := p.await(r); err != nil {
			return err
		}
		putRequest(r)
	}
	return nil
}

// stats snapshots the shard's state; called on its owning goroutine.
func (s *shard) stats() ShardStats {
	c := s.rec.Counters()
	return ShardStats{
		Shard:           s.id,
		Counters:        c,
		Node:            core.StatsOf(c),
		CachedSnapshots: s.node.CachedSnapshots(),
		IdleUCs:         s.node.IdleUCs(),
		Mem:             s.node.MemStats(),
		Clock:           time.Duration(s.eng.Now()),
		Breaker:         s.breaker.stateName(),
	}
}

// Stats aggregates counters across every shard. Each shard's snapshot
// is consistent (taken inside its goroutine); the aggregate is a union
// of per-shard snapshots taken at slightly different wall-clock
// moments, which is the strongest statement a shared-nothing design
// can make.
func (p *Pool) Stats() (Stats, error) {
	out := Stats{Shards: make([]ShardStats, len(p.shards))}
	if err := p.control(p.shards, func(s *shard) { out.Shards[s.id] = s.stats() }); err != nil {
		return Stats{}, err
	}
	c := p.rec.Counters()
	for _, ss := range out.Shards {
		c.Add(ss.Counters)
		out.CachedSnapshots += ss.CachedSnapshots
		out.IdleUCs += ss.IdleUCs
		out.MemoryUsedBytes += ss.Mem.BytesInUse
	}
	out.Counters, out.Node = c, core.StatsOf(c)
	out.RoutingStats = RoutingStats{
		Stolen:       c[metrics.CtrRequestsStolen],
		BreakerTrips: c[metrics.CtrBreakerTrips],
		Rerouted:     c[metrics.CtrRequestsRerouted],
		Requeued:     c[metrics.CtrRequestsRequeued],
		Stalls:       c[metrics.CtrShardStalls],
		Overloaded:   c[metrics.CtrRequestsOverloaded],
	}
	return out, nil
}

// Prewarm promotes lineages from the shared disk tier's manifest into
// their owner shards' snapshot caches, hottest (most recently used)
// first — the boot-time restart-recovery pass, so a rebooted node's
// first invocations go warm instead of cold. max bounds how many
// lineages promote (<= 0: all). Returns how many promoted; lineages
// whose promotion fails (damaged entry, memory budget) are skipped,
// not fatal.
func (p *Pool) Prewarm(max int) (int, error) {
	st := p.cfg.Node.SnapStore
	if st == nil {
		return 0, nil
	}
	count := 0
	for _, name := range st.KeysMRU() {
		if max > 0 && count >= max {
			break
		}
		key := strings.TrimPrefix(name, "fn/")
		if key == name {
			continue // mid-stack base, not a lineage: promoted on demand
		}
		var perr error
		owner := p.shardFor(key)
		err := p.control(p.shards[owner:owner+1], func(s *shard) {
			s.eng.RunProc("prewarm", func(sp *sim.Proc) { perr = s.node.PromoteLineage(sp, name) })
		})
		if err != nil {
			return count, err
		}
		if perr == nil {
			count++
		}
	}
	return count, nil
}

// FlushSnapshots demotes every shard's resident function snapshots
// into the shared disk tier without evicting them, then syncs the
// manifest — the graceful-drain persistence pass. Returns the total
// number of entries flushed across shards.
func (p *Pool) FlushSnapshots() (int, error) {
	st := p.cfg.Node.SnapStore
	if st == nil {
		return 0, nil
	}
	flushed := make([]int, len(p.shards))
	err := p.control(p.shards, func(s *shard) {
		s.eng.RunProc("flush", func(sp *sim.Proc) { flushed[s.id] = s.node.FlushSnapshots(sp) })
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range flushed {
		total += n
	}
	return total, st.Sync()
}

// PolicyTick advances every shard's virtual clock by `advance` and
// runs one lifecycle-reaper pass on each — the pool-scope heartbeat an
// owner (a wall-clock ticker in the server, a scripted loop in an
// experiment) drives. The pass runs between invocations on the owner
// goroutine, so no UC is mid-invocation when its keep-alive is judged;
// the advance models wall-clock idle time elapsing on the shard's
// virtual clock (invocations advance it only by their own latencies).
// Returns the aggregated TickStats. A no-op returning zeros when no
// lifecycle policy is configured.
func (p *Pool) PolicyTick(advance time.Duration) (core.TickStats, error) {
	var out core.TickStats
	if p.cfg.Node.Policy == nil {
		return out, nil
	}
	ticks := make([]core.TickStats, len(p.shards))
	err := p.control(p.shards, func(s *shard) {
		s.eng.RunProc("policy-tick", func(sp *sim.Proc) {
			if advance > 0 {
				sp.Sleep(advance)
			}
			ticks[s.id] = s.node.PolicyTick(sp)
		})
	})
	if err != nil {
		return out, err
	}
	for _, ts := range ticks {
		out.Add(ts)
	}
	return out, nil
}

// SnapStore returns the shared disk tier, nil when none is configured.
func (p *Pool) SnapStore() *snapstore.Store { return p.cfg.Node.SnapStore }

// Metrics merges the pool's routing counters with every shard's
// recorder into one snapshot. Unlike Stats, the read does not route
// through the shard goroutines: recorders are atomics, so a scrape
// never waits behind a busy (or wedged) shard. Each counter is
// individually exact; the snapshot as a whole is a union of per-shard
// readings taken moments apart, same as Stats.
func (p *Pool) Metrics() metrics.Snapshot {
	s := p.rec.Snapshot()
	for _, sh := range p.shards {
		s.Merge(sh.rec.Snapshot())
	}
	return s
}

// BreakerStates returns every shard's breaker state, indexed by shard.
func (p *Pool) BreakerStates() []string {
	out := make([]string, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.breaker.stateName()
	}
	return out
}

// Close stops the shard goroutines and rejects further submissions.
// In-flight requests complete; queued-but-unserved requests may be
// abandoned, so quiesce callers first. Close is idempotent.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.quit)
	p.wg.Wait()
}
