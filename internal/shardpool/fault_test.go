package shardpool

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/fault"
	"seuss/internal/metrics"
	"seuss/internal/policy"
)

// TestBreakerStateMachine pins the breaker transitions in isolation:
// closed → open on threshold consecutive failures, open → half-open
// after probeAfter diversions, probe outcome closes or re-opens.
func TestBreakerStateMachine(t *testing.T) {
	rec := metrics.NewRecorder()
	trips := func() int64 { return rec.Counters()[metrics.CtrBreakerTrips] }
	b := newBreaker(2, 3, rec)

	if allow, _ := b.route(); !allow {
		t.Fatal("closed breaker must allow")
	}
	b.recordFailure()
	b.recordSuccess() // success resets the consecutive-failure count
	b.recordFailure()
	if s := b.stateName(); s != "closed" {
		t.Fatalf("one failure after reset tripped the breaker: %s", s)
	}
	b.recordFailure()
	if s := b.stateName(); s != "open" || trips() != 1 {
		t.Fatalf("after threshold failures: state=%s trips=%d", s, trips())
	}

	// Open: diverts probeAfter-1 requests, then lets a probe through.
	for i := 0; i < 2; i++ {
		if allow, _ := b.route(); allow {
			t.Fatalf("diversion %d allowed through an open breaker", i)
		}
	}
	allow, probe := b.route()
	if !allow || !probe {
		t.Fatalf("third diversion should be the half-open probe (allow=%v probe=%v)", allow, probe)
	}
	// While the probe is in flight other requests still divert.
	if allow, _ := b.route(); allow {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}

	// Probe fails: straight back to open, counts a fresh trip.
	b.recordFailure()
	if s := b.stateName(); s != "open" || trips() != 2 {
		t.Fatalf("failed probe: state=%s trips=%d", s, trips())
	}
	// Re-probe, succeed: closed.
	b.route()
	b.route()
	if allow, probe := b.route(); !allow || !probe {
		t.Fatal("expected another probe")
	}
	b.recordSuccess()
	if s := b.stateName(); s != "closed" {
		t.Fatalf("successful probe left state %s", s)
	}

	d := newBreaker(-1, 0, nil)
	if !d.disabled() {
		t.Fatal("threshold -1 should disable")
	}
	d.recordFailure()
	d.recordFailure()
	if allow, _ := d.route(); !allow {
		t.Fatal("disabled breaker must always allow")
	}
}

// tripBreaker opens shard id's breaker where serving code does: on the
// shard's own goroutine (recordFailure's only caller is shard.serve),
// between requests. Tripping it from the test goroutine instead races
// the owner's loop — a shard already parked in its steal select read
// healthy() before the trip and may take back the request it diverts.
func tripBreaker(t *testing.T, pool *Pool, id int) {
	t.Helper()
	err := pool.control(pool.shards[id:id+1], func(s *shard) {
		for i := 0; i < s.breaker.threshold; i++ {
			s.breaker.recordFailure()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := pool.BreakerState(id); st != "open" {
		t.Fatalf("breaker state = %s, want open", st)
	}
}

// TestBreakerReroutesAroundSickShard is the acceptance-path test: with
// one shard's breaker open, that shard's keys divert over the
// work-stealing path to a healthy shard with ZERO dropped or failed
// requests, the half-open probe recovers the shard, and traffic
// returns to the owner.
func TestBreakerReroutesAroundSickShard(t *testing.T) {
	cfg := testConfig(2)
	cfg.breakerThreshold = 3
	cfg.breakerProbeAfter = 3
	pool := newTestPool(t, cfg)

	key := "brk/fn"
	sick := pool.OwnerShard(key)
	healthy := 1 - sick

	tripBreaker(t, pool, sick) // white-box: three contained failures

	// Diversions 1 and 2 must be served by the healthy shard.
	for i := 0; i < 2; i++ {
		res, err := pool.InvokeSync(key, nopSource, "{}")
		if err != nil {
			t.Fatalf("diverted invoke %d failed: %v", i, err)
		}
		if res.Shard != healthy || !res.Stolen {
			t.Fatalf("diverted invoke %d served by shard %d (stolen=%v), want healthy %d",
				i, res.Shard, res.Stolen, healthy)
		}
		if !strings.Contains(res.Output, `"ok":true`) {
			t.Fatalf("diverted invoke %d output = %q", i, res.Output)
		}
	}

	// Third owned request is the half-open probe: it reaches the sick
	// shard, succeeds, and closes the breaker.
	res, err := pool.InvokeSync(key, nopSource, "{}")
	if err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if res.Shard != sick || res.Stolen {
		t.Fatalf("probe served by shard %d (stolen=%v), want owner %d", res.Shard, res.Stolen, sick)
	}
	if st, _ := pool.BreakerState(sick); st != "closed" {
		t.Fatalf("state after successful probe = %s, want closed", st)
	}

	// Recovered: traffic stays on the owner.
	res, err = pool.InvokeSync(key, nopSource, "{}")
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard != sick || res.Stolen {
		t.Fatalf("post-recovery request served by shard %d, want owner %d", res.Shard, sick)
	}

	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rerouted != 2 {
		t.Errorf("Rerouted = %d, want 2", st.Rerouted)
	}
	if st.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", st.BreakerTrips)
	}
	if st.Node.Errors != 0 {
		t.Errorf("re-routing produced %d node errors, want 0", st.Node.Errors)
	}
}

// TestBreakerTripsAndSelfHealsSingleShard drives the trip end-to-end
// through injected UC crashes, on a 1-shard pool where diversion has
// no healthy target: requests must fall through to the sick owner
// (liveness — never stranded on the overflow queue), and its first
// success closes the breaker.
func TestBreakerTripsAndSelfHealsSingleShard(t *testing.T) {
	cfg := testConfig(1)
	cfg.Faults = fault.Config{
		Schedule: map[fault.Point][]uint64{fault.PointUCCrash: {1, 2, 3}},
	}
	cfg.breakerThreshold = 3
	pool := newTestPool(t, cfg)

	for i := 0; i < 3; i++ {
		_, err := pool.InvokeSync("solo/fn", nopSource, "{}")
		if !errors.Is(err, core.ErrUCCrashed) {
			t.Fatalf("invoke %d: err = %v, want ErrUCCrashed", i, err)
		}
		if !fault.IsContained(err) {
			t.Fatalf("invoke %d: crash not contained", i)
		}
	}
	if st, _ := pool.BreakerState(0); st != "open" {
		t.Fatalf("breaker = %s after 3 consecutive crashes, want open", st)
	}

	// Schedule exhausted: the fall-through request succeeds and heals
	// the shard.
	res, err := pool.InvokeSync("solo/fn", nopSource, "{}")
	if err != nil {
		t.Fatalf("fall-through request on sick 1-shard pool: %v", err)
	}
	if !strings.Contains(res.Output, `"ok":true`) {
		t.Fatalf("output = %q", res.Output)
	}
	if st, _ := pool.BreakerState(0); st != "closed" {
		t.Fatalf("breaker = %s after successful serve, want closed", st)
	}

	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BreakerTrips != 1 || st.Rerouted != 0 {
		t.Errorf("trips=%d rerouted=%d, want 1 and 0", st.BreakerTrips, st.Rerouted)
	}
	if st.Node.UCCrashes != 3 {
		t.Errorf("UCCrashes = %d, want 3", st.Node.UCCrashes)
	}
}

// TestStallRequeuesNotDrops: an injected shard stall re-routes the
// request to the overflow queue instead of failing it — the caller
// still gets a successful reply.
func TestStallRequeuesNotDrops(t *testing.T) {
	cfg := testConfig(2)
	cfg.Faults = fault.Config{
		Schedule: map[fault.Point][]uint64{fault.PointShardStall: {1}},
	}
	pool := newTestPool(t, cfg)

	res, err := pool.InvokeSync("stall/fn", nopSource, "{}")
	if err != nil {
		t.Fatalf("stalled request failed: %v", err)
	}
	if !strings.Contains(res.Output, `"ok":true`) {
		t.Fatalf("output = %q", res.Output)
	}
	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The owner stalls once; the thief may itself stall its first visit
	// (each shard runs the same schedule), so 1 or 2 requeues — but the
	// request is never dropped and never surfaces an error.
	if st.Stalls < 1 || st.Requeued < 1 {
		t.Errorf("stalls=%d requeued=%d, want >= 1 each", st.Stalls, st.Requeued)
	}
	if st.Requeued > st.Stalls {
		t.Errorf("requeued=%d > stalls=%d", st.Requeued, st.Stalls)
	}
}

// TestStallWithoutStealingFailsContained: with re-routing disabled a
// stall surfaces as a contained ErrShardStalled, so upper layers can
// retry it.
func TestStallWithoutStealingFailsContained(t *testing.T) {
	cfg := testConfig(2)
	cfg.DisableWorkStealing = true
	cfg.Faults = fault.Config{
		Schedule: map[fault.Point][]uint64{fault.PointShardStall: {1}},
	}
	pool := newTestPool(t, cfg)

	_, err := pool.InvokeSync("stall/fn", nopSource, "{}")
	if !errors.Is(err, errShardStalled) {
		t.Fatalf("err = %v, want ErrShardStalled", err)
	}
	if !fault.IsContained(err) {
		t.Error("stall not marked contained")
	}

	// The same key retried lands on visit 2 — past the schedule — and
	// succeeds on its owner.
	res, err := pool.InvokeSync("stall/fn", nopSource, "{}")
	if err != nil {
		t.Fatalf("retry after stall: %v", err)
	}
	if !strings.Contains(res.Output, `"ok":true`) {
		t.Errorf("retry output = %q", res.Output)
	}
}

// TestOverloadedQueueShedsWithinDeadline: with its owner parked in a
// control message and its queue full, a shard sheds the next invocation
// with a contained, counted ErrOverloaded once AdmitDeadline passes,
// instead of holding the caller for as long as the shard is stuck. The
// queued requests are still served when the owner comes back.
func TestOverloadedQueueShedsWithinDeadline(t *testing.T) {
	cfg := testConfig(1)
	cfg.DisableWorkStealing = true
	pool := newTestPool(t, cfg)

	parked, release := make(chan struct{}), make(chan struct{})
	go pool.control(pool.shards, func(*shard) {
		close(parked)
		<-release
	})
	<-parked
	errs := make(chan error, queueDepth)
	for i := 0; i < queueDepth; i++ {
		go func() {
			_, err := pool.InvokeSync(fmt.Sprintf("queued/%d", i), nopSource, "{}")
			errs <- err
		}()
	}
	for len(pool.shards[0].reqs) < queueDepth {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, err := pool.InvokeSync("late/fn", nopSource, "{}")
	waited := time.Since(start)
	if !errors.Is(err, ErrOverloaded) || !fault.IsContained(err) {
		t.Fatalf("err = %v, want a contained ErrOverloaded", err)
	}
	if waited < AdmitDeadline || waited > 2*AdmitDeadline {
		t.Errorf("shed after %v, want between %v and %v", waited, AdmitDeadline, 2*AdmitDeadline)
	}

	close(release)
	for i := 0; i < queueDepth; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued request: %v", err)
		}
	}
	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Overloaded != 1 || st.Node.Cold != queueDepth {
		t.Errorf("overloaded = %d, cold = %d; want 1 and %d", st.Overloaded, st.Node.Cold, queueDepth)
	}
}

// TestPoolFaultDeterminism: the same pool seed replays the identical
// per-shard fault trace and per-shard stats, run over run. Pinned
// routing (no stealing, breakers off) keeps per-shard request
// sequences identical so the whole event history is comparable.
func TestPoolFaultDeterminism(t *testing.T) {
	run := func() ([]string, []core.Stats) {
		cfg := testConfig(2)
		cfg.DisableWorkStealing = true
		cfg.breakerThreshold = -1
		cfg.Faults = fault.Config{
			Seed:   7,
			Rate:   0.15,
			Points: []fault.Point{fault.PointUCCrash},
		}
		pool := newTestPool(t, cfg)
		keys := []string{"det/a", "det/b", "det/c"}
		for i := 0; i < 40; i++ {
			_, err := pool.InvokeSync(keys[i%len(keys)], nopSource, "{}")
			if err != nil && !fault.IsContained(err) {
				t.Fatalf("invoke %d: uncontained error %v", i, err)
			}
		}
		var traces []string
		var stats []core.Stats
		for i := 0; i < pool.Shards(); i++ {
			traces = append(traces, pool.ShardFaults(i).TraceString())
			ss, err := pool.ShardStats(i)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, ss.Node)
		}
		return traces, stats
	}

	tr1, st1 := run()
	tr2, st2 := run()
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Errorf("shard %d: same seed, different traces:\n%s\n%s", i, tr1[i], tr2[i])
		}
		if st1[i] != st2[i] {
			t.Errorf("shard %d: same seed, different stats:\n%+v\n%+v", i, st1[i], st2[i])
		}
	}
	var fired int
	for i := range tr1 {
		fired += len(tr1[i])
	}
	if fired == 0 {
		t.Error("rate 0.15 over 40 invocations fired nothing on any shard")
	}
}

// TestControlMessagesBypassRoutingAndFaults: every pool-scope control
// operation is one message kind, run by the shard it names. With that
// shard's breaker open and a stall scheduled for its first request,
// ShardStats, Prewarm, FlushSnapshots and PolicyTick are all still
// answered by it — not diverted, not stalled, not mistaken for the
// half-open probe — and leave the routing counters and the stall
// schedule untouched for the next real invocation to meet.
func TestControlMessagesBypassRoutingAndFaults(t *testing.T) {
	const key = "ctl/fn"
	cfg, _ := tierConfig(t, 2, -1)
	cfg.Node.Policy = policy.FixedKeepAlive{Window: 30 * time.Second}

	// Leave one lineage in the tier for Prewarm to find.
	seed := newTestPool(t, cfg)
	if _, err := seed.InvokeSync(key, nopSource, "{}"); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.FlushSnapshots(); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	cfg.breakerThreshold = 3
	cfg.Faults = fault.Config{
		Schedule: map[fault.Point][]uint64{fault.PointShardStall: {1}},
	}
	pool := newTestPool(t, cfg)
	owner := pool.OwnerShard(key)
	tripBreaker(t, pool, owner)

	ownerStats := func() ShardStats {
		t.Helper()
		ss, err := pool.ShardStats(owner)
		if err != nil {
			t.Fatal(err)
		}
		if ss.Shard != owner || ss.Breaker != "open" {
			t.Fatalf("ShardStats(%d) answered by shard %d, breaker %s; want the owner, still open", owner, ss.Shard, ss.Breaker)
		}
		return ss
	}
	if n, err := pool.Prewarm(0); err != nil || n != 1 {
		t.Fatalf("Prewarm = %d, %v; want 1 lineage", n, err)
	}
	if ss := ownerStats(); ss.CachedSnapshots != 1 || ss.Node.SnapshotsPrewarmed != 1 {
		t.Errorf("prewarm did not land on the owner: %+v", ss)
	}
	if n, err := pool.FlushSnapshots(); err != nil || n != 1 {
		t.Errorf("FlushSnapshots = %d, %v; want the owner's 1 lineage", n, err)
	}
	if ts, err := pool.PolicyTick(31 * time.Second); err != nil || ts.DemotedLineages != 1 {
		t.Errorf("PolicyTick = %+v, %v; want the owner's lineage demoted", ts, err)
	}
	if ss := ownerStats(); ss.CachedSnapshots != 0 || ss.Clock < 31*time.Second {
		t.Errorf("tick did not run on the owner: %+v", ss)
	}

	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stolen != 0 || st.Rerouted != 0 || st.Requeued != 0 || st.Stalls != 0 {
		t.Errorf("control messages moved routing counters: stolen=%d rerouted=%d requeued=%d stalls=%d",
			st.Stolen, st.Rerouted, st.Requeued, st.Stalls)
	}
	if fired := pool.ShardFaults(owner).TotalFired(); fired != 0 {
		t.Errorf("control messages consumed %d fault visits", fired)
	}

	// The first real invocation meets both: diverted around the open
	// breaker, stalled once by the thief's still-armed schedule, served.
	if _, err := pool.InvokeSync(key, nopSource, "{}"); err != nil {
		t.Fatal(err)
	}
	if st, err = pool.Stats(); err != nil {
		t.Fatal(err)
	}
	if st.Rerouted != 1 || st.Stalls != 1 || st.Requeued != 1 {
		t.Errorf("after one invocation: rerouted=%d stalls=%d requeued=%d, want 1/1/1", st.Rerouted, st.Stalls, st.Requeued)
	}
}
