package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestPolicyTradeoffs is the scaled-down acceptance run for the
// lifecycle-policy experiment — the same three-band trace as the full
// figure at a fraction of the key count. The inequalities it pins are
// the ones results/policy.tsv is gated on: Hybrid must beat
// NoKeepAlive on tail latency (prewarms turn lukewarm restores into
// warm starts) while holding less resident RAM than FixedKeepAlive
// (scale-to-zero between predicted arrivals; one-shot keys retire on
// the short default window).
func TestPolicyTradeoffs(t *testing.T) {
	f, err := runPolicy(policyConfig{
		HotKeys:      20,
		PeriodicKeys: 60,
		OnceKeys:     200,
		Horizon:      26 * time.Minute,
		Warmup:       14 * time.Minute,
		Seed:         1,
		SnapDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Arms) != 3 {
		t.Fatalf("arms = %d, want 3", len(f.Arms))
	}
	byName := map[string]policyArm{}
	for _, a := range f.Arms {
		byName[a.Policy] = a
	}
	none, fixed, hybrid := byName["none"], byName["fixed"], byName["hybrid"]
	for name, a := range byName {
		if a.Measured == 0 {
			t.Fatalf("arm %q measured nothing", name)
		}
		if a.Cold != 0 {
			t.Errorf("arm %q saw %d cold starts inside the window (every key warmed up)", name, a.Cold)
		}
	}

	// The latency side: prediction beats scale-to-zero on the tail.
	if hybrid.P99 >= none.P99 {
		t.Errorf("hybrid p99 %v not below none p99 %v", hybrid.P99, none.P99)
	}
	if frac := float64(hybrid.Lukewarm) / float64(hybrid.Measured); frac >= 0.01 {
		t.Errorf("hybrid lukewarm fraction %.3f, want < 1%% in steady state", frac)
	}
	if hybrid.Prewarms == 0 {
		t.Error("hybrid never prewarmed — the periodic band was not learned")
	}
	if hybrid.WarmHit < fixed.WarmHit {
		t.Errorf("hybrid warm-hit %.3f below fixed %.3f", hybrid.WarmHit, fixed.WarmHit)
	}

	// The RAM side: per-key windows beat one-size-fits-all.
	if hybrid.RAMGBs >= fixed.RAMGBs {
		t.Errorf("hybrid RAM %.2f GB·s not below fixed %.2f", hybrid.RAMGBs, fixed.RAMGBs)
	}
	if none.RAMGBs >= hybrid.RAMGBs {
		t.Errorf("none RAM %.2f GB·s not below hybrid %.2f — scale-to-zero stopped being free", none.RAMGBs, hybrid.RAMGBs)
	}

	// The baseline pays for its RAM savings in restores.
	if none.Lukewarm <= fixed.Lukewarm {
		t.Errorf("none lukewarm %d not above fixed %d", none.Lukewarm, fixed.Lukewarm)
	}

	if !strings.Contains(f.TSV(), "policy\tarrivals\t") {
		t.Error("TSV header missing")
	}
	if !strings.Contains(f.Render(), "warm-hit") {
		t.Error("render missing warm-hit column")
	}
}
