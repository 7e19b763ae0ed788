package core

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"seuss/internal/fault"
	"seuss/internal/lang"
)

// faultSeed honors the CI fault-matrix seed (SEUSS_FAULT_SEED),
// defaulting to 1.
func faultSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("SEUSS_FAULT_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SEUSS_FAULT_SEED %q: %v", s, err)
		}
		return n
	}
	return 1
}

// TestFaultCrashedUCNeverRecycled is the containment regression test:
// a UC whose invocation returned an error — injected crash here — must
// be destroyed, never returned to the idle cache where its dirty
// interpreter state would poison later warm hits.
func TestFaultCrashedUCNeverRecycled(t *testing.T) {
	cfg := DefaultConfig()
	// Crash exactly the second invocation the node runs.
	cfg.Faults = fault.New(fault.Config{
		Schedule: map[fault.Point][]uint64{fault.PointUCCrash: {2}},
	})
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}

	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	if n.IdleUCs() != 1 {
		t.Fatalf("idle UCs after cold = %d, want 1", n.IdleUCs())
	}

	// Second invocation takes the idle UC hot and crashes.
	_, err := invoke(t, n, eng, req)
	if !errors.Is(err, ErrUCCrashed) {
		t.Fatalf("err = %v, want ErrUCCrashed", err)
	}
	if !fault.IsContained(err) {
		t.Error("crash not marked contained")
	}
	if n.IdleUCs() != 0 {
		t.Fatalf("crashed UC returned to the idle cache (idle=%d)", n.IdleUCs())
	}
	if n.Stats().UCCrashes != 1 {
		t.Errorf("UCCrashes = %d, want 1", n.Stats().UCCrashes)
	}

	// Containment: the snapshot survived the crash, so the retry is
	// served warm from a fresh deploy with the same output shape.
	res, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatalf("retry after contained crash: %v", err)
	}
	if res.Path != PathWarm {
		t.Errorf("retry path = %v, want warm (fresh deploy from snapshot)", res.Path)
	}
	if !strings.Contains(res.Output, `"ok":true`) {
		t.Errorf("retry output = %q", res.Output)
	}
}

// TestFaultGuestErrorDestroysUC covers the non-injected flavor of the
// same audit: a genuine guest failure (step-budget exhaustion) must
// also destroy the UC.
func TestFaultGuestErrorDestroysUC(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	spin := Request{
		Key:      "acct/spin",
		Source:   `function main(args) { while (true) { var x = 1; } }`,
		Args:     "{}",
		deadline: 2 * time.Millisecond,
	}
	_, err := invoke(t, n, eng, spin)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, lang.ErrTooManySteps) {
		t.Errorf("deadline error should wrap the step-budget cause: %v", err)
	}
	if !fault.IsContained(err) {
		t.Error("deadline kill not marked contained")
	}
	if n.IdleUCs() != 0 {
		t.Fatalf("errored UC cached as idle (idle=%d)", n.IdleUCs())
	}
	st := n.Stats()
	if st.DeadlinesExceeded != 1 || st.UCCrashes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDeadlineDoesNotLeakAcrossInvocations: a deadlined request on a UC
// must not shrink the budget of a later undeadlined request served hot
// by the same lineage, and a healthy hot UC must not exhaust a lifetime
// budget across many invocations.
func TestDeadlineDoesNotLeakAcrossInvocations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InvokeDeadline = 5 * time.Millisecond
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	for i := 0; i < 10; i++ {
		res, err := invoke(t, n, eng, req)
		if err != nil {
			t.Fatalf("invoke %d under per-invocation deadline: %v", i, err)
		}
		if i > 0 && res.Path != PathHot {
			t.Fatalf("invoke %d path = %v, want hot", i, res.Path)
		}
	}
	if n.Stats().DeadlinesExceeded != 0 {
		t.Errorf("healthy function hit its deadline: %+v", n.Stats())
	}
}

// TestStagedPressureDegradesWithoutErrors drives a node far past its
// memory budget and asserts the degradation ladder holds: requests are
// served (hot → warm → cold as caches shrink), never failed, and the
// pressure counters show the ladder actually engaged.
func TestStagedPressureDegradesWithoutErrors(t *testing.T) {
	cfg := DefaultConfig()
	// Runtime image ≈117MB; leave room for only a handful of cached
	// functions so deploys constantly collide with the budget.
	cfg.MemoryBytes = 140 << 20
	n, eng := newTestNode(t, cfg)

	for round := 0; round < 3; round++ {
		for i := 0; i < 30; i++ {
			key := "fn-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			req := Request{Key: key, Source: nopSource, Args: "{}"}
			if _, err := invoke(t, n, eng, req); err != nil {
				t.Fatalf("round %d invoke %d (%s): %v", round, i, key, err)
			}
		}
	}
	st := n.Stats()
	if st.Errors != 0 {
		t.Fatalf("pressure produced %d errors; ladder must degrade, not fail: %+v", st.Errors, st)
	}
	if st.PressureIdleReclaims == 0 && st.UCsReclaimed == 0 {
		t.Errorf("level 1 (idle reclaim) never engaged: %+v", st)
	}
	if st.SnapshotsEvicted == 0 {
		t.Errorf("level 2 (snapshot eviction) never engaged: %+v", st)
	}
}

// TestFaultRandomRateContained: under a random crash storm every
// failure is contained (an error, never a wedged node) and the same
// seed reproduces the identical fault trace.
func TestFaultRandomRateContained(t *testing.T) {
	seed := faultSeed(t)
	run := func() (Stats, string) {
		cfg := DefaultConfig()
		cfg.Faults = fault.New(fault.Config{
			Seed: seed, Rate: 0.2, Points: []fault.Point{fault.PointUCCrash},
		})
		n, eng := newTestNode(t, cfg)
		req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
		for i := 0; i < 50; i++ {
			_, err := invoke(t, n, eng, req)
			if err != nil && !fault.IsContained(err) {
				t.Fatalf("invoke %d: uncontained error %v", i, err)
			}
		}
		return n.Stats(), cfg.Faults.TraceString()
	}
	st1, tr1 := run()
	st2, tr2 := run()
	if tr1 != tr2 {
		t.Fatalf("same seed, different fault traces:\n%s\n%s", tr1, tr2)
	}
	if st1.UCCrashes != st2.UCCrashes || st1.Hot != st2.Hot {
		t.Errorf("same seed, different stats: %+v vs %+v", st1, st2)
	}
	if st1.UCCrashes == 0 {
		t.Error("rate 0.2 over 50 invocations crashed nothing")
	}
	if st1.Hot == 0 {
		t.Error("no hot hits between crashes — containment wiped healthy state")
	}
}

// TestProxyDropAbsorbed: a dropped proxy packet delays the flow one
// retransmit, it does not fail the request.
func TestProxyDropAbsorbed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.New(fault.Config{
		Schedule: map[fault.Point][]uint64{fault.PointProxyDrop: {1}},
	})
	cfg.HTTPHandler = func(url string) (string, time.Duration, error) {
		return `"pong"`, 0, nil
	}
	n, eng := newTestNode(t, cfg)
	ioSrc := `function main(args) { return {body: http.get("http://x/")}; }`
	res, err := invoke(t, n, eng, Request{Key: "io", Source: ioSrc, Args: "{}"})
	if err != nil {
		t.Fatalf("dropped packet failed the request: %v", err)
	}
	if !strings.Contains(res.Output, "pong") {
		t.Errorf("output = %q", res.Output)
	}
	if cfg.Faults.Fired(fault.PointProxyDrop) != 1 {
		t.Error("drop point never fired")
	}

	// The same function without the drop is strictly faster.
	cfg2 := DefaultConfig()
	cfg2.HTTPHandler = cfg.HTTPHandler
	n2, eng2 := newTestNode(t, cfg2)
	res2, err := invoke(t, n2, eng2, Request{Key: "io", Source: ioSrc, Args: "{}"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= res2.Latency {
		t.Errorf("drop latency %v not above clean latency %v", res.Latency, res2.Latency)
	}
}

// TestColdFallbackServesWhenWarmCannotFit pins the level-3 rung
// directly: a warm deploy that cannot fit is abandoned and the request
// served cold, not failed.
func TestColdFallbackServesWhenWarmCannotFit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 123 << 20 // barely above the ≈117MB runtime image
	n, eng := newTestNode(t, cfg)

	// First function: cold, captures a snapshot, caches an idle UC.
	a := Request{Key: "fn-a", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, a); err != nil {
		t.Fatalf("cold a: %v", err)
	}
	// Churn more functions through; with ~6MB of headroom the ladder
	// must reclaim and evict to keep serving, and some warm deploys
	// will fall back to cold. No request may fail.
	keys := []string{"fn-b", "fn-c", "fn-a", "fn-b", "fn-a", "fn-c", "fn-a"}
	for i, k := range keys {
		if _, err := invoke(t, n, eng, Request{Key: k, Source: nopSource, Args: "{}"}); err != nil {
			t.Fatalf("invoke %d (%s): %v", i, k, err)
		}
	}
	if n.Stats().Errors != 0 {
		t.Errorf("errors = %d under saturation; want graceful degradation", n.Stats().Errors)
	}
}
