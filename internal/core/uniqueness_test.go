package core

import (
	"testing"

	"seuss/internal/fault"
	"seuss/internal/metrics"
	"seuss/internal/sim"
	"seuss/internal/trace"
)

// randSource surfaces the guest RNG stream in invocation output.
const randSource = `
function main(args) {
	return {a: Math.random(), b: Math.random()};
}
`

// TestColdClonesDivergeEntropy: two cold deploys from the shared base
// runtime snapshot produce distinct RNG streams.
func TestColdClonesDivergeEntropy(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	r1, err := invoke(t, n, eng, Request{Key: "acct/r1", Source: randSource, Args: "{}"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := invoke(t, n, eng, Request{Key: "acct/r2", Source: randSource, Args: "{}"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Path != PathCold || r2.Path != PathCold {
		t.Fatalf("paths = %v, %v, want cold, cold", r1.Path, r2.Path)
	}
	if r1.Output == r2.Output {
		t.Errorf("cold clones replayed the same RNG stream: %s", r1.Output)
	}
	if r1.ID == r2.ID {
		t.Error("request ids collided")
	}
}

// TestWarmClonesDivergeEntropy: repeated warm deploys from one function
// snapshot diverge. maxIdlePerFn < 0 disables the idle cache, so every
// repeat is a genuine warm deploy, not a hot hit.
func TestWarmClonesDivergeEntropy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.maxIdlePerFn = -1
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/rand", Source: randSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	w1, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Path != PathWarm || w2.Path != PathWarm {
		t.Fatalf("paths = %v, %v, want warm, warm", w1.Path, w2.Path)
	}
	if w1.Output == w2.Output {
		t.Errorf("warm clones replayed the same RNG stream: %s", w1.Output)
	}
}

// TestLukewarmClonesDivergeEntropy: two nodes restoring one lineage
// from the shared disk tier — the first on-demand, the second through
// the working-set replay the first recorded — still diverge. This is
// the "restart with the same snapshot directory" shape where identical
// restores are most tempting.
func TestLukewarmClonesDivergeEntropy(t *testing.T) {
	store := newTierStore(t, -1)
	req := Request{Key: "acct/rand", Source: randSource, Args: "{}"}

	cfgA := DefaultConfig()
	cfgA.SnapStore = store
	nA, engA := newTestNode(t, cfgA)
	if _, err := invoke(t, nA, engA, req); err != nil {
		t.Fatal(err)
	}
	if n := nA.FlushSnapshots(nil); n != 1 {
		t.Fatalf("flushed %d snapshots, want 1", n)
	}

	restore := func() Result {
		cfg := DefaultConfig()
		cfg.SnapStore = store
		n, eng := newTestNode(t, cfg)
		res, err := invoke(t, n, eng, req)
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
		t.Errorf("lukewarm clones replayed the same RNG stream: %s", l1.Output)
	}
}

// TestEntropyStaleFaultReproducesCollision: firing the entropy-stale
// point skips the uniqueness re-draw, and the clones collide — proof
// the divergence assertions above would catch a regression rather than
// pass vacuously.
func TestEntropyStaleFaultReproducesCollision(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.New(fault.Config{
		Seed:     1,
		Schedule: map[fault.Point][]uint64{fault.PointEntropyStale: {1, 2}},
	})
	n, eng := newTestNode(t, cfg)
	r1, err := invoke(t, n, eng, Request{Key: "acct/r1", Source: randSource, Args: "{}"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := invoke(t, n, eng, Request{Key: "acct/r2", Source: randSource, Args: "{}"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != r2.Output {
		t.Errorf("stale clones should collide:\n%s\n%s", r1.Output, r2.Output)
	}
	if n.Stats().FaultsInjected != 2 {
		t.Errorf("FaultsInjected = %d, want 2", n.Stats().FaultsInjected)
	}
}

// TestReseedMetricsByPath: the seuss_uc_reseeds_total family counts one
// re-draw per deploy, attributed to the right path.
func TestReseedMetricsByPath(t *testing.T) {
	rec := metrics.NewRecorder()
	cfg := DefaultConfig()
	cfg.Metrics = rec
	n, eng := newTestNode(t, cfg)
	snap := rec.Snapshot()
	if got := snap.Counter(metrics.CtrReseedsBoot); got != 1 {
		t.Errorf("boot reseeds = %d, want 1", got)
	}

	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().Counter(metrics.CtrReseedsCold); got != 1 {
		t.Errorf("cold reseeds = %d, want 1", got)
	}

	// Hot hit: no deploy, no reseed.
	if _, err := invoke(t, n, eng, req); err != nil {
		t.Fatal(err)
	}
	cold := rec.Snapshot().Counter(metrics.CtrReseedsCold)
	warm := rec.Snapshot().Counter(metrics.CtrReseedsWarm)
	if cold != 1 || warm != 0 {
		t.Errorf("hot hit drew a reseed: cold=%d warm=%d", cold, warm)
	}

	// Reclaim the idle UC; the next invoke is a warm deploy.
	eng.Go("reclaim", func(p *sim.Proc) { n.reclaimAll(p) })
	eng.Run()
	if res, err := invoke(t, n, eng, req); err != nil || res.Path != PathWarm {
		t.Fatalf("warm invoke: path=%v err=%v", res.Path, err)
	}
	if got := rec.Snapshot().Counter(metrics.CtrReseedsWarm); got != 1 {
		t.Errorf("warm reseeds = %d, want 1", got)
	}

	// Deploy-kit recycling: an un-invoked idle UC parks a kit; the next
	// deploy rebinds it and the reseed is attributed to the kit path.
	eng.Go("idle", func(p *sim.Proc) {
		u, err := n.DeployIdle(p)
		if err != nil {
			t.Error(err)
			return
		}
		u.Destroy()
		if _, err := n.DeployIdle(p); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if got := rec.Snapshot().Counter(metrics.CtrReseedsKit); got != 1 {
		t.Errorf("kit reseeds = %d, want 1", got)
	}
}

// TestInvokeTraceCarriesReseedGeneration: invocation spans that
// deployed a UC record the deploy generation; hot hits record zero.
func TestInvokeTraceCarriesReseedGeneration(t *testing.T) {
	tr := trace.New(0)
	cfg := DefaultConfig()
	cfg.Tracer = tr
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, n, eng, req); err != nil { // cold
		t.Fatal(err)
	}
	if _, err := invoke(t, n, eng, req); err != nil { // hot
		t.Fatal(err)
	}
	var invokes []trace.Event
	for _, e := range tr.Events() {
		if e.Kind == trace.KindInvoke {
			invokes = append(invokes, e)
		}
	}
	if len(invokes) != 2 {
		t.Fatalf("invoke spans = %d, want 2", len(invokes))
	}
	if invokes[0].Reseed == 0 {
		t.Error("cold invoke span lost its reseed generation")
	}
	if invokes[1].Reseed != 0 {
		t.Errorf("hot invoke span claims a reseed generation: %d", invokes[1].Reseed)
	}
}
