package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"seuss/internal/fault"
	"seuss/internal/policy"
	"seuss/internal/sim"
)

// stubPolicy is a fully scripted lifecycle policy: fixed windows, an
// explicit prewarm offset, and counters for the hook calls — the
// reaper's behaviour isolated from any real policy's estimation.
type stubPolicy struct {
	ka, ska        time.Duration
	prewarmAfter   time.Duration // PrewarmAt = now + prewarmAfter when > 0
	invokes        int
	pressureEvents int
}

func (s *stubPolicy) Name() string                               { return "stub" }
func (s *stubPolicy) RecordInvoke(key string, now time.Duration) { s.invokes++ }
func (s *stubPolicy) RecordPressure(key string, now time.Duration) {
	s.pressureEvents++
}
func (s *stubPolicy) KeepAlive(key string, now time.Duration) time.Duration { return s.ka }
func (s *stubPolicy) SnapshotKeepAlive(key string, now time.Duration) time.Duration {
	return s.ska
}
func (s *stubPolicy) PrewarmAt(key string, now time.Duration) (time.Duration, bool) {
	if s.prewarmAfter <= 0 {
		return 0, false
	}
	return now + s.prewarmAfter, true
}
func (s *stubPolicy) Clone() policy.Policy { return s }

// policyTick advances the virtual clock to `at` and runs one reaper
// pass there, returning its TickStats.
func policyTick(t *testing.T, n *Node, eng *sim.Engine, at time.Duration) TickStats {
	t.Helper()
	var ts TickStats
	eng.Go("reaper", func(p *sim.Proc) {
		if d := at - time.Duration(p.Now()); d > 0 {
			p.Sleep(d)
		}
		ts = n.PolicyTick(p)
	})
	eng.Run()
	return ts
}

// TestPolicyKeepAliveExpiresIdleUCs: an idle UC past its keep-alive
// window is destroyed by the reaper, but the function snapshot stays
// resident — the next hit is warm, not cold.
func TestPolicyKeepAliveExpiresIdleUCs(t *testing.T) {
	pol := &stubPolicy{ka: 30 * time.Second, ska: 10 * time.Minute}
	cfg := DefaultConfig()
	cfg.Policy = pol
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	if n.IdleUCs() != 1 {
		t.Fatalf("idle UCs = %d, want 1", n.IdleUCs())
	}

	// Inside the window: nothing expires.
	if ts := policyTick(t, n, eng, 10*time.Second); ts.ExpiredUCs != 0 {
		t.Fatalf("tick inside window expired %d UCs", ts.ExpiredUCs)
	}

	ts := policyTick(t, n, eng, 40*time.Second)
	if ts.ExpiredUCs != 1 || ts.DemotedLineages != 0 {
		t.Fatalf("tick = %+v, want 1 expired UC, 0 demoted", ts)
	}
	if n.IdleUCs() != 0 {
		t.Errorf("idle UCs = %d after expiry, want 0", n.IdleUCs())
	}
	if n.Stats().PolicyExpirations != 1 {
		t.Errorf("PolicyExpirations = %d, want 1", n.Stats().PolicyExpirations)
	}

	res, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathWarm {
		t.Errorf("post-expiry path = %v, want warm (snapshot survived)", res.Path)
	}
	if pol.invokes == 0 {
		t.Error("policy never saw RecordInvoke")
	}
}

// TestPolicyScaleToZeroLukewarmByteIdentical: when the snapshot window
// also lapses, the lineage is demoted to the disk tier and freed from
// RAM; the next invocation lukewarm-restores and produces exactly the
// output a warm deploy from the same snapshot produced, and the tier
// bytes are untouched by the restore.
func TestPolicyScaleToZeroLukewarmByteIdentical(t *testing.T) {
	store := newTierStore(t, -1)
	cfg := DefaultConfig()
	cfg.Policy = &stubPolicy{ka: 30 * time.Second, ska: 60 * time.Second}
	cfg.SnapStore = store
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	n.reclaimAll(nil)
	warmRes, err := invoke(t, n, eng, req)
	if err != nil || warmRes.Path != PathWarm {
		t.Fatalf("warm reference: path=%v err=%v", warmRes.Path, err)
	}

	// First stage at +40s: the idle UC dies, the snapshot stays.
	if ts := policyTick(t, n, eng, 40*time.Second); ts.ExpiredUCs != 1 || ts.DemotedLineages != 0 {
		t.Fatalf("first tick = %+v, want UC-only expiry", ts)
	}
	if n.CachedSnapshots() != 1 {
		t.Fatalf("snapshot demoted too early")
	}

	// Second stage at +70s: scale to zero.
	ts := policyTick(t, n, eng, 70*time.Second)
	if ts.DemotedLineages != 1 {
		t.Fatalf("second tick = %+v, want 1 demoted lineage", ts)
	}
	if n.CachedSnapshots() != 0 {
		t.Errorf("snapshot still resident after scale-to-zero")
	}
	if !store.Has("fn/acct/fn") {
		t.Fatal("scale-to-zero left no tier entry")
	}
	demoted, err := store.Get("fn/acct/fn")
	if err != nil {
		t.Fatal(err)
	}

	res, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathLukewarm {
		t.Fatalf("post-demote path = %v, want lukewarm", res.Path)
	}
	if res.Output != warmRes.Output {
		t.Errorf("lukewarm output %q != warm output %q", res.Output, warmRes.Output)
	}
	restored, err := store.Get("fn/acct/fn")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(demoted, restored) {
		t.Error("tier bytes changed across the restore")
	}
}

// TestPolicyScaleToZeroRestoresDivergeEntropy: two fresh nodes
// restoring the lineage a reaper demoted still re-draw guest entropy —
// scale-to-zero composes with the uniqueness reseed, not around it.
func TestPolicyScaleToZeroRestoresDivergeEntropy(t *testing.T) {
	store := newTierStore(t, -1)
	cfg := DefaultConfig()
	cfg.Policy = &stubPolicy{ka: 10 * time.Second, ska: 20 * time.Second}
	cfg.SnapStore = store
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/rand", Source: randSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	if ts := policyTick(t, n, eng, 30*time.Second); ts.DemotedLineages != 1 {
		t.Fatalf("tick = %+v, want 1 demoted lineage", ts)
	}

	restore := func() Result {
		c := DefaultConfig()
		c.SnapStore = store
		nn, ee := newTestNode(t, c)
		res, err := invoke(t, nn, ee, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathLukewarm {
			t.Fatalf("path = %v, want lukewarm", res.Path)
		}
		return res
	}
	l1, l2 := restore(), restore()
	if l1.Output == l2.Output {
		t.Errorf("restores from a reaper-demoted lineage replayed the same RNG stream: %s", l1.Output)
	}
}

// TestPolicyPrewarmPromotesAheadOfRecurrence: a demoted lineage whose
// policy predicted a recurrence is promoted back once the predicted
// instant passes — the arrival that follows lands warm, not lukewarm.
func TestPolicyPrewarmPromotesAheadOfRecurrence(t *testing.T) {
	store := newTierStore(t, -1)
	cfg := DefaultConfig()
	cfg.Policy = &stubPolicy{ka: 30 * time.Second, ska: 60 * time.Second, prewarmAfter: 90 * time.Second}
	cfg.SnapStore = store
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}

	// +70s: scale to zero; prewarm scheduled for 70s+90s = +160s.
	if ts := policyTick(t, n, eng, 70*time.Second); ts.DemotedLineages != 1 {
		t.Fatalf("demote tick = %+v", ts)
	}
	// +100s: prediction not due yet.
	if ts := policyTick(t, n, eng, 100*time.Second); ts.Prewarmed != 0 {
		t.Fatalf("early tick prewarmed %d", ts.Prewarmed)
	}
	// +165s: due — the lineage comes back before any request asks.
	ts := policyTick(t, n, eng, 165*time.Second)
	if ts.Prewarmed != 1 {
		t.Fatalf("due tick = %+v, want 1 prewarm", ts)
	}
	st := n.Stats()
	if st.PolicyPrewarms != 1 || st.PolicyPrewarmMisfires != 0 {
		t.Errorf("prewarm stats = %+v", st)
	}

	res, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathWarm {
		t.Errorf("post-prewarm path = %v, want warm (promotion hid the tier)", res.Path)
	}
}

// TestPolicyMisfireFaultEarlyExpiry: the policy-misfire point collapses
// every keep-alive window to zero for one tick. State demotes long
// before its window — and the next hit still lukewarm-restores
// correctly, which is what makes the fault safe.
func TestPolicyMisfireFaultEarlyExpiry(t *testing.T) {
	store := newTierStore(t, -1)
	cfg := DefaultConfig()
	cfg.Policy = &stubPolicy{ka: 10 * time.Minute, ska: 10 * time.Minute}
	cfg.SnapStore = store
	cfg.Faults = fault.New(fault.Config{
		Seed:     faultSeed(t),
		Schedule: map[fault.Point][]uint64{fault.PointPolicyMisfire: {1}},
	})
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}

	// One misfiring tick runs the whole lifecycle in fast-forward: the
	// idle UC dies, the lineage demotes through the tier, and the
	// misfire's unpredicted prewarm pulls it straight back — a full
	// encode/decode round trip decades ahead of schedule.
	ts := policyTick(t, n, eng, time.Second)
	if ts.ExpiredUCs != 1 || ts.DemotedLineages != 1 || ts.Prewarmed != 1 {
		t.Fatalf("misfire tick = %+v, want expiry, demotion, and misfire prewarm", ts)
	}
	st := n.Stats()
	if st.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", st.FaultsInjected)
	}
	if st.SnapshotsDemoted != 1 || st.SnapshotsPromoted != 1 {
		t.Errorf("tier round trip = %d demoted / %d promoted, want 1/1", st.SnapshotsDemoted, st.SnapshotsPromoted)
	}
	if st.PolicyPrewarmMisfires != 1 {
		t.Errorf("PolicyPrewarmMisfires = %d, want 1", st.PolicyPrewarmMisfires)
	}

	res, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathWarm {
		t.Errorf("post-misfire path = %v, want warm from the restored snapshot", res.Path)
	}
	if !strings.Contains(res.Output, `"ok":true`) {
		t.Errorf("restored output = %q", res.Output)
	}
}

// TestPolicyMisfireFaultUnpredictedPrewarm: the other half of the
// fault point — a misfiring tick promotes a lineage no prediction was
// due for, counted as outcome="misfire" rather than a real prewarm.
func TestPolicyMisfireFaultUnpredictedPrewarm(t *testing.T) {
	store := newTierStore(t, -1)
	cfg := DefaultConfig()
	cfg.Policy = &stubPolicy{ka: 10 * time.Second, ska: 20 * time.Second}
	cfg.SnapStore = store
	cfg.Faults = fault.New(fault.Config{
		Seed:     faultSeed(t),
		Schedule: map[fault.Point][]uint64{fault.PointPolicyMisfire: {2}},
	})
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	// Tick 1 (no fault): regular scale-to-zero; no prewarm is scheduled
	// because the stub predicts none.
	if ts := policyTick(t, n, eng, 30*time.Second); ts.DemotedLineages != 1 || ts.Prewarmed != 0 {
		t.Fatalf("demote tick = %+v", ts)
	}
	// Tick 2 (misfire): the reaper promotes the demoted lineage anyway.
	ts := policyTick(t, n, eng, 60*time.Second)
	if ts.Prewarmed != 1 {
		t.Fatalf("misfire tick = %+v, want 1 prewarm", ts)
	}
	st := n.Stats()
	if st.PolicyPrewarmMisfires != 1 || st.PolicyPrewarms != 0 {
		t.Errorf("prewarm stats = %+v, want the promotion counted as a misfire", st)
	}

	res, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathWarm {
		t.Errorf("post-misfire-prewarm path = %v, want warm", res.Path)
	}
}

// TestPolicyIdleCapEvictionNotifiesPressure: satellite 1 — the
// maxIdlePerFn cap evicts the oldest idle UC (LRU), accounts it as a
// reclaim, flushes the fn snapshot toward the tier, and reports the
// pressure event to the policy.
func TestPolicyIdleCapEvictionNotifiesPressure(t *testing.T) {
	store := newTierStore(t, -1)
	pol := &stubPolicy{ka: 10 * time.Minute, ska: 10 * time.Minute}
	cfg := DefaultConfig()
	cfg.Policy = pol
	cfg.SnapStore = store
	cfg.maxIdlePerFn = 1
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	// Two concurrent invocations: one hot (takes the idle UC), one warm
	// (fresh deploy). Both UCs return to a cap of one — the overflow
	// evicts the older resident.
	for i := 0; i < 2; i++ {
		eng.Go("client", func(p *sim.Proc) {
			if _, err := n.Invoke(p, req); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()

	if n.IdleUCs() != 1 {
		t.Errorf("idle UCs = %d, want cap of 1", n.IdleUCs())
	}
	st := n.Stats()
	if st.UCsReclaimed != 1 {
		t.Errorf("UCsReclaimed = %d, want 1", st.UCsReclaimed)
	}
	if pol.pressureEvents == 0 {
		t.Error("cap eviction never reported pressure to the policy")
	}
	if !store.Has("fn/acct/fn") {
		t.Error("cap eviction did not flush the fn snapshot to the tier")
	}
}

// TestPolicyTickWithoutPolicyIsNoOp: a node with no lifecycle policy
// never expires anything — the pre-subsystem behaviour, bit for bit.
func TestPolicyTickWithoutPolicyIsNoOp(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	if ts := policyTick(t, n, eng, time.Hour); ts != (TickStats{}) {
		t.Fatalf("tick = %+v, want zero", ts)
	}
	if n.IdleUCs() != 1 || n.CachedSnapshots() != 1 {
		t.Errorf("no-policy tick touched residency: idle=%d snaps=%d", n.IdleUCs(), n.CachedSnapshots())
	}
}
