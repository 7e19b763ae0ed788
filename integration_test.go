package seuss

import (
	"strings"
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/faas"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// Cross-module invariants exercised through the whole stack: platform →
// shim → node → UC → interpreter → page tables → frames.

func TestIntegrationStatsConservation(t *testing.T) {
	eng := sim.NewEngine()
	node, err := core.NewNode(eng, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cluster := faas.NewCluster(faas.NewSeussBackend(node))
	fns := make([]workload.Spec, 8)
	for i := range fns {
		fns[i] = workload.NOPSpec(i)
	}
	trial := workload.Trial{N: 200, Fns: fns, C: 8, Seed: 3}
	res := trial.Run(eng, cluster)

	if res.Completed+res.Errors != 200 {
		t.Errorf("completed %d + errors %d != 200", res.Completed, res.Errors)
	}
	st := node.Stats()
	// Every platform request was served by exactly one node path.
	if st.Cold+st.Warm+st.Hot != int64(res.Completed) {
		t.Errorf("paths %d+%d+%d != completions %d", st.Cold, st.Warm, st.Hot, res.Completed)
	}
	// Every unique function went cold exactly once (no evictions at
	// this scale).
	if st.Cold != 8 || st.SnapshotsCaptured != 8 {
		t.Errorf("cold=%d captured=%d, want 8", st.Cold, st.SnapshotsCaptured)
	}
}

func TestIntegrationMemoryBounded(t *testing.T) {
	eng := sim.NewEngine()
	cfg := core.DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	node, err := core.NewNode(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster := faas.NewCluster(faas.NewSeussBackend(node))
	// 120 unique functions on a memory-tight node: evictions and
	// reclaims must keep the node inside budget with zero failures.
	fns := make([]workload.Spec, 120)
	for i := range fns {
		fns[i] = workload.NOPSpec(i)
	}
	res := workload.Trial{N: 300, Fns: fns, C: 8, Seed: 5}.Run(eng, cluster)
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	ms := node.MemStats()
	if ms.BytesInUse > cfg.MemoryBytes {
		t.Errorf("memory %d exceeds budget %d", ms.BytesInUse, cfg.MemoryBytes)
	}
	if node.Stats().SnapshotsEvicted == 0 && node.Stats().UCsReclaimed == 0 {
		t.Error("no reclaim activity on a tight node")
	}
}

func TestIntegrationDeterministicMacroRun(t *testing.T) {
	run := func() (float64, int64) {
		eng := sim.NewEngine()
		node, err := core.NewNode(eng, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cluster := faas.NewCluster(faas.NewSeussBackend(node))
		fns := make([]workload.Spec, 16)
		for i := range fns {
			fns[i] = workload.NOPSpec(i)
		}
		res := workload.Trial{N: 300, Fns: fns, C: 16, Seed: 11}.Run(eng, cluster)
		return res.Throughput(), node.Stats().Cold
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Errorf("macro run nondeterministic: %.3f/%d vs %.3f/%d", t1, c1, t2, c2)
	}
}

func TestIntegrationGuestStateIsolationAtPlatformLevel(t *testing.T) {
	// Two tenants deploy byte-identical stateful code under different
	// keys; the platform must never leak state across them even while
	// caches churn.
	eng := sim.NewEngine()
	node, err := core.NewNode(eng, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := `var secrets = []; function main(args) { if (args.put) { secrets.push(args.put); } return {count: secrets.length}; }`

	var aliceOut, bobOut string
	eng.Go("flow", func(p *sim.Proc) {
		if _, err := node.Invoke(p, core.Request{Key: "alice/db", Source: src, Args: `{"put": "alice-secret"}`}); err != nil {
			t.Error(err)
			return
		}
		res, err := node.Invoke(p, core.Request{Key: "bob/db", Source: src, Args: `{}`})
		if err != nil {
			t.Error(err)
			return
		}
		bobOut = res.Output
		res, err = node.Invoke(p, core.Request{Key: "alice/db", Source: src, Args: `{}`})
		if err != nil {
			t.Error(err)
			return
		}
		aliceOut = res.Output
	})
	eng.Run()
	if !strings.Contains(bobOut, `"count":0`) {
		t.Errorf("bob sees alice's writes: %q", bobOut)
	}
	if !strings.Contains(aliceOut, `"count":1`) {
		t.Errorf("alice lost her own state: %q", aliceOut)
	}
}

func TestIntegrationVirtualTimeNeverRegresses(t *testing.T) {
	s := New()
	node, err := s.NewNode(NodeDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for i := 0; i < 5; i++ {
		if _, err := node.InvokeSync("t/fn", NOPSource, `{}`); err != nil {
			t.Fatal(err)
		}
		now := time.Duration(s.Engine().Now())
		if now < last {
			t.Fatalf("clock regressed: %v < %v", now, last)
		}
		last = now
	}
}
