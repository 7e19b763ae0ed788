package policy

import (
	"testing"
	"time"
)

// TestPolicyBaselineWindows pins the two trivial policies: NoKeepAlive
// scales everything to zero on sight, FixedKeepAlive hands every key
// the same window and never prewarms.
func TestPolicyBaselineWindows(t *testing.T) {
	now := 5 * time.Minute

	var none NoKeepAlive
	if got := none.KeepAlive("k", now); got != 0 {
		t.Errorf("NoKeepAlive.KeepAlive = %v, want 0", got)
	}
	if got := none.SnapshotKeepAlive("k", now); got != 0 {
		t.Errorf("NoKeepAlive.SnapshotKeepAlive = %v, want 0", got)
	}
	if _, ok := none.PrewarmAt("k", now); ok {
		t.Error("NoKeepAlive.PrewarmAt predicted a recurrence")
	}

	fixed := FixedKeepAlive{Window: 2 * time.Minute}
	if got := fixed.KeepAlive("k", now); got != 2*time.Minute {
		t.Errorf("FixedKeepAlive.KeepAlive = %v, want 2m", got)
	}
	if got := fixed.SnapshotKeepAlive("k", now); got != 2*time.Minute {
		t.Errorf("FixedKeepAlive.SnapshotKeepAlive = %v, want 2m", got)
	}
	if _, ok := fixed.PrewarmAt("k", now); ok {
		t.Error("FixedKeepAlive.PrewarmAt predicted a recurrence")
	}
	if got := (FixedKeepAlive{}).KeepAlive("k", now); got != defaultFixedWindow {
		t.Errorf("zero-window FixedKeepAlive = %v, want default %v", got, defaultFixedWindow)
	}
}

// TestPolicyNewByName pins the flag-name registry.
func TestPolicyNewByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
	}{{"none", "none"}, {"fixed", "fixed"}, {"hybrid", "hybrid"}} {
		p, err := New(tc.name, 0)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.name, err)
		}
		if p.Name() != tc.want {
			t.Errorf("New(%q).Name() = %q", tc.name, p.Name())
		}
	}
	if p, err := New("", 0); err != nil || p != nil {
		t.Errorf("New(\"\") = %v, %v; want nil, nil", p, err)
	}
	if _, err := New("bogus", 0); err == nil {
		t.Error("New(\"bogus\") did not error")
	}
	p, err := New("fixed", 7*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.KeepAlive("k", 0); got != 7*time.Minute {
		t.Errorf("New(fixed, 7m).KeepAlive = %v", got)
	}
}

// TestPolicyHybridColdKeysGetDefaultWindow: with fewer than MinSamples
// recorded gaps the histogram is untrusted — one-shot keys retire on
// the short default window and are never prewarmed.
func TestPolicyHybridColdKeysGetDefaultWindow(t *testing.T) {
	h := NewHybrid()
	h.RecordInvoke("once", 10*time.Second)
	if got := h.KeepAlive("once", 11*time.Second); got != h.Default {
		t.Errorf("one-shot KeepAlive = %v, want default %v", got, h.Default)
	}
	if got := h.SnapshotKeepAlive("once", 11*time.Second); got != h.Default {
		t.Errorf("one-shot SnapshotKeepAlive = %v, want default %v", got, h.Default)
	}
	if _, ok := h.PrewarmAt("once", 11*time.Second); ok {
		t.Error("one-shot key got a prewarm prediction")
	}
	if got := h.KeepAlive("never-seen", 0); got != h.Default {
		t.Errorf("unseen KeepAlive = %v, want default %v", got, h.Default)
	}
}

// TestPolicyHybridPeriodicKeyScaleToZeroAndPrewarm: a key arriving
// every 4 minutes (long, concentrated gaps) flips into periodic mode —
// minimum keep-alive on both windows, and a prewarm scheduled before
// the predicted next arrival.
func TestPolicyHybridPeriodicKeyScaleToZeroAndPrewarm(t *testing.T) {
	h := NewHybrid()
	period := 4 * time.Minute
	var now time.Duration
	for i := 0; i < 6; i++ {
		now = time.Duration(i) * period
		h.RecordInvoke("cron", now)
	}
	if got := h.KeepAlive("cron", now); got != h.Min {
		t.Errorf("periodic KeepAlive = %v, want Min %v", got, h.Min)
	}
	if got := h.SnapshotKeepAlive("cron", now); got != h.Min {
		t.Errorf("periodic SnapshotKeepAlive = %v, want Min %v", got, h.Min)
	}
	at, ok := h.PrewarmAt("cron", now+time.Minute)
	if !ok {
		t.Fatal("periodic key got no prewarm prediction")
	}
	next := now + period
	if at >= next {
		t.Errorf("prewarm at %v is not before the predicted arrival %v", at, next)
	}
	if at <= now+period/3 {
		t.Errorf("prewarm at %v is implausibly early (last invoke %v, period %v)", at, now, period)
	}
}

// TestPolicyHybridBurstyKeyKeepAliveClamped: short, spread-out gaps
// (a Poisson-ish stream) stay in keep-alive mode with the window set
// near the p95 gap — and always inside [Min, Max].
func TestPolicyHybridBurstyKeyKeepAliveClamped(t *testing.T) {
	h := NewHybrid()
	// Gaps spanning 2s..64s: p95 lands in the tail octave.
	gaps := []time.Duration{2 * time.Second, 3 * time.Second, 5 * time.Second,
		8 * time.Second, 10 * time.Second, 15 * time.Second, 20 * time.Second,
		30 * time.Second, 45 * time.Second, 64 * time.Second}
	var now time.Duration
	h.RecordInvoke("api", now)
	for _, g := range gaps {
		now += g
		h.RecordInvoke("api", now)
	}
	ka := h.KeepAlive("api", now)
	if ka < h.Min || ka > h.Max {
		t.Errorf("KeepAlive %v outside [%v, %v]", ka, h.Min, h.Max)
	}
	if ka < 45*time.Second {
		t.Errorf("KeepAlive %v below the observed p95 gap", ka)
	}
	if _, ok := h.PrewarmAt("api", now); ok {
		t.Error("bursty key got a prewarm prediction")
	}
	snap := h.SnapshotKeepAlive("api", now)
	if snap < ka {
		t.Errorf("SnapshotKeepAlive %v shorter than UC KeepAlive %v", snap, ka)
	}
}

// TestPolicyHybridCloneIsIndependent: Clone copies parameters but not
// per-key state — the shardpool contract.
func TestPolicyHybridCloneIsIndependent(t *testing.T) {
	h := NewHybrid()
	h.Max = 3 * time.Minute
	h.RecordInvoke("k", time.Second)
	h.RecordInvoke("k", 2*time.Second)
	h.RecordInvoke("k", 3*time.Second)

	c, ok := h.Clone().(*hybrid)
	if !ok {
		t.Fatal("Clone did not return a *Hybrid")
	}
	if c.Max != 3*time.Minute {
		t.Errorf("Clone lost parameters: Max = %v", c.Max)
	}
	c.RecordInvoke("k2", time.Second)
	if h.keys["k2"] != nil {
		t.Error("Clone shares per-key state with its parent")
	}
	if c.keys["k"] != nil {
		t.Error("Clone inherited the parent's per-key history")
	}
}

// TestPolicyHybridPressureRecorded: pressure evictions are tallied per
// key, not mistaken for arrival gaps.
func TestPolicyHybridPressureRecorded(t *testing.T) {
	h := NewHybrid()
	h.RecordInvoke("k", time.Second)
	before := h.keys["k"].samples
	h.RecordPressure("k", 2*time.Second)
	h.RecordPressure("k", 3*time.Second)
	if got := h.PressureEvents("k"); got != 2 {
		t.Errorf("PressureEvents = %d, want 2", got)
	}
	if h.keys["k"].samples != before {
		t.Error("RecordPressure changed the gap histogram")
	}
	h.RecordPressure("unknown", time.Second) // must not panic or create state
	if h.keys["unknown"] != nil {
		t.Error("RecordPressure created state for an unseen key")
	}
}

// TestPolicyHybridPressureHalvesWindows: pressure evictions halve a
// key's effective windows (capped at 1/8), and fresh arrivals earn the
// windows back one halving at a time.
func TestPolicyHybridPressureHalvesWindows(t *testing.T) {
	h := NewHybrid()
	h.RecordInvoke("k", time.Second)
	base := h.KeepAlive("k", 2*time.Second)
	if base != h.Default {
		t.Fatalf("undersampled KeepAlive = %v, want default %v", base, h.Default)
	}
	h.RecordPressure("k", 2*time.Second)
	if got := h.KeepAlive("k", 3*time.Second); got != base/2 {
		t.Errorf("KeepAlive after one eviction = %v, want %v", got, base/2)
	}
	if got := h.SnapshotKeepAlive("k", 3*time.Second); got != base/2 {
		t.Errorf("SnapshotKeepAlive after one eviction = %v, want %v", got, base/2)
	}
	for i := 0; i < 10; i++ {
		h.RecordPressure("k", 3*time.Second)
	}
	if got := h.KeepAlive("k", 4*time.Second); got != base/8 {
		t.Errorf("KeepAlive under sustained pressure = %v, want floor %v", got, base/8)
	}
	// One fresh gap forgives one eviction; the cap still binds.
	h.RecordInvoke("k", 10*time.Second)
	if got := h.keys["k"].pressure; got != 10 {
		t.Errorf("pressure after one forgiving arrival = %d, want 10", got)
	}
}
