// Package fault is the deterministic fault-injection framework behind
// the reproduction's failure model (PAPER.md §4: faults are contained
// to the UC; the snapshot is immutable and redeploys a fresh context).
//
// A fault *point* is a named site in the serving path where a failure
// can be made to happen: a UC crashing mid-invocation, a snapshot diff
// corrupting on the wire, a compute shard stalling, the per-core proxy
// dropping a packet. Production code asks its Injector whether the
// point fires *this* time; the injector decides from a seeded hash or
// an explicit schedule, never from wall-clock time or global entropy,
// so a fault run is replayable: the same seed and the same per-point
// visit sequence produce the identical firing trace, run after run.
//
// Zero overhead when disabled: a nil *Injector is the off switch —
// every method is nil-safe and Fire on nil is a single predictable
// branch. Code under test never checks a flag; it just calls Fire.
//
// Containment taxonomy: handling layers (node, pool, cluster) wrap the
// errors that destroyed only the offending UC/shard request in
// Contain; retry layers consult IsContained to distinguish
// "retry against a fresh deploy" from "deterministic failure, do not
// waste the retry budget".
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Point names a fault-injection site.
type Point string

// The built-in fault points exercised by the stack.
const (
	// PointUCCrash crashes a UC mid-invocation (core.Node.runOn): the
	// UC is destroyed, never recycled, and the caller sees a contained
	// error it may retry against a fresh snapshot deploy.
	PointUCCrash Point = "uc-crash"
	// PointSnapshotCorrupt corrupts a snapshot diff on the wire
	// (cluster migrate): decode fails and the holder serves instead.
	PointSnapshotCorrupt Point = "snapshot-corrupt"
	// PointShardStall stalls a compute shard (shardpool serve): the
	// request is requeued to a healthy shard and the stall counts
	// against the shard's circuit breaker.
	PointShardStall Point = "shard-stall"
	// PointProxyDrop drops an outbound proxy packet (core env.HTTPGet):
	// the flow pays one retransmit timeout and proceeds.
	PointProxyDrop Point = "proxy-drop"
	// PointGossipDrop drops one node's manifest exchange during a
	// cluster gossip round: the scheduler's view of that node stays
	// stale until the next round.
	PointGossipDrop Point = "gossip-drop"
	// PointFetchDrop drops a snapshot-layer transfer packet (cluster
	// fetch): the layer pays one retransmit RTT and proceeds.
	PointFetchDrop Point = "fetch-drop"
	// PointMemberCrash kills a cluster member (consulted once per member
	// per gossip round): resident UCs and memory-tier snapshots are
	// lost, the disk tier survives, in-flight invocations fail contained
	// and fail over to a live member.
	PointMemberCrash Point = "member-crash"
	// PointMemberRestart rejoins a crashed member (consulted once per
	// down member per gossip round): the node rebuilds over its
	// surviving disk tier, resyncs its manifest, and prewarms. Fired
	// against a partitioned member it heals the partition instead.
	PointMemberRestart Point = "member-restart"
	// PointMemberPartition isolates a member (consulted once per live
	// member per gossip round): the node keeps running but is reachable
	// by no one — heartbeats stop, placements skip it, and its state
	// machine walks alive → suspect → dead until the partition heals.
	PointMemberPartition Point = "member-partition"
	// PointWSCorrupt corrupts a working-set sidecar as it is read for a
	// lukewarm restore (core promote): decode fails, the record is
	// dropped, and the restore degrades to on-demand faulting — the
	// invocation still succeeds.
	PointWSCorrupt Point = "ws-corrupt"
	// PointEntropyStale skips the restore-time uniqueness re-draw (core
	// deploy): the deployed clone keeps the snapshot's captured RNG seed,
	// reproducing the duplicated-stream bug the re-draw exists to
	// prevent. The divergence tests fire it to prove they would catch a
	// regression.
	PointEntropyStale Point = "entropy-stale"
	// PointPolicyMisfire makes the lifecycle policy misjudge one reaper
	// tick (core PolicyTick): keep-alive windows collapse to zero, so
	// idle state expires early, and the prewarm scheduler promotes a
	// tier lineage nothing predicted a recurrence for. Both
	// mispredictions are safe-by-construction — expired state
	// lukewarm-restores on the next hit and a useless prewarm only
	// wastes RAM — and the policy tests fire this point to prove it.
	PointPolicyMisfire Point = "policy-misfire"
)

var (
	regMu    sync.Mutex
	registry = map[Point]string{
		PointUCCrash:         "UC crashes mid-invocation; destroyed and redeployed from snapshot",
		PointSnapshotCorrupt: "snapshot diff corrupts in transit; decode fails, holder serves",
		PointShardStall:      "shard stalls; request requeues and the breaker counts a failure",
		PointProxyDrop:       "proxy drops an outbound packet; one retransmit timeout",
		PointGossipDrop:      "gossip exchange drops; the scheduler view stays stale one round",
		PointFetchDrop:       "layer fetch drops a packet; one retransmit RTT",
		PointMemberCrash:     "cluster member dies; RAM state lost, disk tier survives, invocations fail over",
		PointMemberRestart:   "crashed member rejoins; manifest resync and disk-tier prewarm",
		PointMemberPartition: "member unreachable but running; suspected, then declared dead until healed",
		PointWSCorrupt:       "working-set sidecar corrupts on read; restore degrades to on-demand faulting",
		PointEntropyStale:    "deploy skips the uniqueness re-draw; the clone keeps the snapshot's stale RNG seed",
		PointPolicyMisfire:   "lifecycle policy misjudges one tick; keep-alive expires early and a prewarm fires for a key with no recurrence",
	}
)

// Register adds a fault point to the global registry (idempotent).
// Points need not be registered to fire; the registry exists so
// operators can enumerate what a build can inject.
func Register(pt Point, desc string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[pt]; !ok {
		registry[pt] = desc
	}
}

// Points lists the registered fault points in sorted order.
func Points() []Point {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Point, 0, len(registry))
	for pt := range registry {
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Describe returns a registered point's description ("" if unknown).
func Describe(pt Point) string {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[pt]
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives the per-point firing hash. Two injectors with the
	// same seed fire identically for the same per-point visit counts.
	Seed int64
	// Rate is the probability in [0, 1] that an enabled point fires on
	// one visit (0 disables random firing).
	Rate float64
	// Points restricts random firing to the listed points (empty = all
	// points fire at Rate). Scheduled points ignore this filter.
	Points []Point
	// Schedule fires a point deterministically on exact visit numbers
	// (1-based): Schedule[PointUCCrash] = []uint64{3} crashes exactly
	// the third UC invocation the injector sees. A scheduled point
	// never also fires randomly.
	Schedule map[Point][]uint64
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool { return c.Rate > 0 || len(c.Schedule) > 0 }

// Child derives the config for a numbered sub-component (a shard, a
// cluster member): same rate, points, and schedule, but a seed offset
// so siblings fault independently yet reproducibly.
func (c Config) Child(id int) Config {
	c.Seed = c.Seed + int64(id)*0x9E3779B9
	return c
}

// Event is one fired fault in an injector's trace.
type Event struct {
	// Seq is the event's position in the injector's firing order.
	Seq uint64
	// Point is the site that fired.
	Point Point
	// Visit is the point's 1-based visit count when it fired.
	Visit uint64
}

// String renders the event compactly ("3:uc-crash@7").
func (e Event) String() string { return fmt.Sprintf("%d:%s@%d", e.Seq, e.Point, e.Visit) }

// Injector decides, deterministically, whether fault points fire. The
// nil *Injector is valid and never fires — the zero-overhead disabled
// state. A non-nil injector is safe for concurrent use (the pool's
// submit path and a shard goroutine may consult breaker-adjacent
// points concurrently); determinism is per point, not across points.
type Injector struct {
	mu        sync.Mutex
	seed      uint64
	threshold uint64 // Rate mapped onto the uint64 space; 0 = no random firing
	enabled   map[Point]bool
	schedule  map[Point]map[uint64]bool
	visits    map[Point]uint64
	fired     map[Point]uint64
	events    []Event
	seq       uint64
}

// traceCap bounds the retained event trace (fault storms must not grow
// memory without bound; counters keep counting past the cap).
const traceCap = 4096

// New builds an injector, or nil — the zero-overhead disabled
// injector — when the config injects nothing.
func New(c Config) *Injector {
	if !c.Enabled() {
		return nil
	}
	in := &Injector{
		seed:     splitmix64(uint64(c.Seed) ^ 0x5E055EED),
		visits:   make(map[Point]uint64),
		fired:    make(map[Point]uint64),
		schedule: make(map[Point]map[uint64]bool),
	}
	if c.Rate > 0 {
		r := c.Rate
		if r >= 1 {
			in.threshold = math.MaxUint64
		} else {
			in.threshold = uint64(r * float64(math.MaxUint64))
		}
	}
	if len(c.Points) > 0 {
		in.enabled = make(map[Point]bool, len(c.Points))
		for _, pt := range c.Points {
			in.enabled[pt] = true
		}
	}
	for pt, visits := range c.Schedule {
		set := make(map[uint64]bool, len(visits))
		for _, v := range visits {
			set[v] = true
		}
		in.schedule[pt] = set
	}
	return in
}

// Fire reports whether the fault point fires on this visit. Nil-safe:
// a nil injector never fires.
func (in *Injector) Fire(pt Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.visits[pt]++
	visit := in.visits[pt]
	var fire bool
	if sched, ok := in.schedule[pt]; ok {
		fire = sched[visit]
	} else if in.threshold > 0 && (in.enabled == nil || in.enabled[pt]) {
		fire = mix(in.seed, pt, visit) <= in.threshold
	}
	if fire {
		in.fired[pt]++
		in.seq++
		if len(in.events) < traceCap {
			in.events = append(in.events, Event{Seq: in.seq, Point: pt, Visit: visit})
		}
	}
	return fire
}

// Visits returns how many times the point has been evaluated.
func (in *Injector) Visits(pt Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.visits[pt]
}

// Fired returns how many times the point has fired.
func (in *Injector) Fired(pt Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[pt]
}

// TotalFired returns the count of all fired faults.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq
}

// Trace returns a copy of the firing trace (capped at an internal
// limit; counters are exact regardless).
func (in *Injector) Trace() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// TraceString renders the firing trace on one line — the replayable
// fingerprint the determinism tests compare.
func (in *Injector) TraceString() string {
	events := in.Trace()
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// mix hashes (seed, point, visit) into the uint64 space. Per-point
// determinism is independent of how visits to *other* points
// interleave, which is what makes shard-local traces replayable even
// when cross-shard ordering is not.
func mix(seed uint64, pt Point, visit uint64) uint64 {
	h := seed
	for i := 0; i < len(pt); i++ {
		h = (h ^ uint64(pt[i])) * 0x100000001B3 // FNV-1a step
	}
	return splitmix64(h ^ visit*0x9E3779B97F4A7C15)
}

// splitmix64 is the standard 64-bit finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ---- Containment taxonomy ----

// containedError marks a failure as contained: the fault destroyed
// only the offending UC (or was absorbed by a re-route) and the
// request is safe to retry against a fresh snapshot deploy.
type containedError struct{ err error }

// Error implements error.
func (c *containedError) Error() string { return c.err.Error() }

// Unwrap preserves errors.Is/As against the wrapped cause.
func (c *containedError) Unwrap() error { return c.err }

// Contain marks err as a contained fault (idempotent; nil passes
// through).
func Contain(err error) error {
	if err == nil || IsContained(err) {
		return err
	}
	return &containedError{err: err}
}

// IsContained reports whether err (or any error it wraps) was marked
// contained — i.e. retrying may succeed against a fresh deploy.
func IsContained(err error) bool {
	for err != nil {
		if _, ok := err.(*containedError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
