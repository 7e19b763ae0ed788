package cluster

import (
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/trace"
	"seuss/internal/workload"
)

func newCluster(t *testing.T, cfg Config) (*Cluster, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, eng
}

// invoke runs one request to completion.
func invoke(t *testing.T, c *Cluster, eng *sim.Engine, req core.Request) (core.Result, int) {
	t.Helper()
	var res core.Result
	var node int
	var err error
	eng.Go("client", func(p *sim.Proc) {
		res, node, err = c.Invoke(p, req)
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, node
}

func TestEmptyClusterRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{Nodes: -1}); err == nil {
		t.Error("negative node count accepted")
	}
}

func TestColdOncePerCluster(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 3})
	req := core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"}

	res1, n1 := invoke(t, c, eng, req)
	if res1.Path != core.PathCold {
		t.Errorf("first = %v", res1.Path)
	}
	// Subsequent invocations anywhere in the cluster are warm or hot —
	// even when they land on different nodes.
	for i := 0; i < 6; i++ {
		res, _ := invoke(t, c, eng, req)
		if res.Path == core.PathCold {
			t.Errorf("invocation %d went cold again", i)
		}
	}
	if c.Stats().ClusterColds != 1 {
		t.Errorf("cluster colds = %d", c.Stats().ClusterColds)
	}
	if len(c.Holders("fn")) == 0 || c.Holders("fn")[0] != n1 {
		t.Errorf("directory = %v", c.Holders("fn"))
	}
}

func TestMigrationReplicatesUnderLoad(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 2, Placer: &sched.LocalityPlacer{Replicate: true}, SnapDir: t.TempDir()})
	req := core.Request{Key: "hotfn", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, req) // cold on one node

	// Concurrent requests overload the holder; the policy replicates the
	// snapshot to the other node.
	overload(t, c, eng, req, 8)
	st := c.Stats()
	if st.Fetches == 0 {
		t.Error("no replication under concurrent load")
	}
	if st.FetchedBytes == 0 {
		t.Error("replication moved no bytes")
	}
	if len(c.Holders("hotfn")) != 2 {
		t.Errorf("holders = %v, want both nodes", c.Holders("hotfn"))
	}
	// Both nodes now hold the snapshot for real.
	for _, m := range c.Members() {
		if !m.Node.HasSnapshot("hotfn") {
			t.Errorf("node %d missing replicated snapshot", m.ID)
		}
	}
}

func TestRoutePolicyDoesNotReplicate(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 2, SnapDir: t.TempDir()})
	req := core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, req)
	for i := 0; i < 8; i++ {
		eng.Go("client", func(p *sim.Proc) { c.Invoke(p, req) })
	}
	eng.Run()
	if c.Stats().Fetches != 0 {
		t.Errorf("route policy replicated %d times", c.Stats().Fetches)
	}
	if len(c.Holders("fn")) != 1 {
		t.Errorf("holders = %v", c.Holders("fn"))
	}
}

func TestLoadSpreadsAcrossNodes(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 4})
	served := map[int]int{}
	for i := 0; i < 16; i++ {
		key := "fn" + string(rune('a'+i))
		req := core.Request{Key: key, Source: workload.NOPSource, Args: "{}"}
		_, n := invoke(t, c, eng, req)
		served[n]++
	}
	// 16 distinct cold functions across 4 nodes: sequential invocations
	// land on the least-loaded node, which round-robins the members.
	for id, count := range served {
		if count == 0 {
			t.Errorf("node %d served nothing", id)
		}
	}
	if len(served) != 4 {
		t.Errorf("only %d nodes used", len(served))
	}
}

func TestTransferCostScalesWithBytes(t *testing.T) {
	c, _ := newCluster(t, Config{Nodes: 2})
	small := c.transferTime(1 << 20)
	big := c.transferTime(100 << 20)
	if big <= small {
		t.Errorf("transfer time not monotone: %v vs %v", small, big)
	}
	// 2 MB over 10 GbE ≈ 1.7 ms + RTT.
	d := c.transferTime(2 << 20)
	if d < time.Millisecond || d > 4*time.Millisecond {
		t.Errorf("2MB transfer = %v", d)
	}
}

func TestDirectoryStaleEntryRecovers(t *testing.T) {
	// Force the holder to evict by memory pressure, then re-invoke: the
	// cluster must recover (cold again or re-adopt) rather than fail.
	cfg := Config{Nodes: 2}
	cfg.NodeConfig = core.DefaultConfig()
	cfg.NodeConfig.MemoryBytes = 170 << 20
	c, eng := newCluster(t, cfg)

	first := core.Request{Key: "victim", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, first)
	// Flood both nodes with other functions to force eviction of
	// "victim" everywhere.
	for i := 0; i < 40; i++ {
		req := core.Request{Key: "filler" + string(rune('0'+i%10)) + string(rune('a'+i/10)), Source: workload.NOPSource, Args: "{}"}
		invoke(t, c, eng, req)
	}
	res, _ := invoke(t, c, eng, first)
	if res.Output == "" {
		t.Error("stale directory broke the invocation")
	}
}

// TestResultCarriesSpanID: the id a cluster invocation reports is the
// one its invoke span carries, so a caller can find its request in the
// trace.
func TestResultCarriesSpanID(t *testing.T) {
	tr := trace.New(0)
	c, eng := newCluster(t, Config{Nodes: 2, tracer: tr})
	res, _ := invoke(t, c, eng, core.Request{Key: "dist/fn", Source: workload.NOPSource, Args: "{}"})
	if spans := tr.ByKind(trace.KindInvoke); len(spans) != 1 || res.ID == 0 || spans[0].ID != res.ID {
		t.Errorf("request id = %d, invoke spans = %+v; want one span with the same non-zero id", res.ID, spans)
	}
}

// TestPolicyMigrateRequiresSnapDir: replication (the migrate policy)
// has one transport, the snapshot fabric, so a replicating
// LocalityPlacer without a SnapDir is a configuration error — not a
// silent switch to some other path — and a caller-supplied placer is
// checked like the default one.
func TestPolicyMigrateRequiresSnapDir(t *testing.T) {
	if _, err := New(sim.NewEngine(), Config{Nodes: 2, Placer: &sched.LocalityPlacer{Replicate: true}}); err == nil {
		t.Error("replicating placer without SnapDir accepted")
	}
	for _, pl := range []sched.Placer{nil, &sched.LocalityPlacer{}, &sched.LeastLoadedPlacer{}} {
		if _, err := New(sim.NewEngine(), Config{Nodes: 2, Placer: pl}); err != nil {
			t.Errorf("placer %v without SnapDir: %v", pl, err)
		}
	}
}

// TestPolicyStrings: the placement policies a cluster reports by name.
func TestPolicyStrings(t *testing.T) {
	for pl, want := range map[sched.Placer]string{
		&sched.LocalityPlacer{}:                "locality-route",
		&sched.LocalityPlacer{Replicate: true}: "locality-replicate",
		&sched.LeastLoadedPlacer{}:             "least-loaded",
	} {
		if got := pl.Name(); got != want {
			t.Errorf("%T name = %q, want %q", pl, got, want)
		}
	}
}

func TestUniqueWorkloadScalesWithNodes(t *testing.T) {
	// Aggregate CPU capacity grows with node count: 2 small nodes chew
	// through a CPU-bound unique-function stream materially faster
	// than 1.
	run := func(nodes int) time.Duration {
		eng := sim.NewEngine()
		cfg := Config{Nodes: nodes}
		cfg.NodeConfig = core.DefaultConfig()
		cfg.NodeConfig.Cores = 4
		c, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		queue := sim.NewQueue(eng)
		for i := 0; i < 64; i++ {
			queue.Put(core.Request{Key: "u" + string(rune('0'+i%10)) + string(rune('a'+i/10)), Source: workload.CPUBoundSource(50), Args: "{}"})
		}
		queue.Close()
		for w := 0; w < 16; w++ {
			eng.Go("w", func(p *sim.Proc) {
				for {
					v, ok := queue.Get(p)
					if !ok {
						return
					}
					if _, _, err := c.Invoke(p, v.(core.Request)); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		eng.Run()
		return time.Duration(eng.Now())
	}
	one := run(1)
	two := run(2)
	if float64(two) > 0.75*float64(one) {
		t.Errorf("2 nodes (%v) not materially faster than 1 (%v)", two, one)
	}
}

func TestDirectoryStatsAccounting(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 2})
	req := core.Request{Key: "acct/fn", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, req) // cluster cold
	for i := 0; i < 4; i++ {
		invoke(t, c, eng, req) // directory hits
	}
	st := c.Stats()
	if st.ClusterColds != 1 {
		t.Errorf("colds = %d", st.ClusterColds)
	}
	if st.LocalHits+st.RemoteRoutes != 4 {
		t.Errorf("hits %d + routes %d != 4", st.LocalHits, st.RemoteRoutes)
	}
}
