package seuss

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	s := New()
	node, err := s.NewNode(NodeDefaults())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := node.InvokeSync("t/hello",
		`function main(args) { return {msg: "hi " + args.who}; }`,
		`{"who": "tester"}`)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Path != "cold" {
		t.Errorf("path = %q", inv.Path)
	}
	if !strings.Contains(inv.Output, `"msg":"hi tester"`) {
		t.Errorf("output = %q", inv.Output)
	}
	if inv.Latency < 4*time.Millisecond || inv.Latency > 12*time.Millisecond {
		t.Errorf("cold latency = %v", inv.Latency)
	}

	inv2, err := node.InvokeSync("t/hello", ``, `{"who": "again"}`)
	if err != nil {
		t.Fatal(err)
	}
	if inv2.Path != "hot" {
		t.Errorf("second path = %q", inv2.Path)
	}
	st := node.Stats()
	if st.Cold != 1 || st.Hot != 1 || st.CachedSnapshots != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimulationClockAdvances(t *testing.T) {
	s := New()
	if s.Clock() != 0 {
		t.Error("clock not at zero")
	}
	s.Spawn("sleeper", func(task *Task) { task.Sleep(5 * time.Second) })
	s.Run()
	if s.Clock() != 5*time.Second {
		t.Errorf("clock = %v", s.Clock())
	}
}

func TestTaskNow(t *testing.T) {
	s := New()
	var at time.Duration
	s.Spawn("w", func(task *Task) {
		task.Sleep(time.Second)
		at = task.Now()
	})
	s.Run()
	if at != time.Second {
		t.Errorf("Now = %v", at)
	}
}

func TestFunctionHelpers(t *testing.T) {
	n := NOP(7)
	if n.Key != "user00007/nop" || n.Source != NOPSource {
		t.Errorf("NOP = %+v", n)
	}
	i := IOBound("k/io", "http://x", 250*time.Millisecond)
	if i.IO != 250*time.Millisecond {
		t.Errorf("IOBound = %+v", i)
	}
}

func TestSeussClusterTrial(t *testing.T) {
	s := New()
	c, err := s.NewSeussCluster(NodeDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if c.Platform().Backend().Name() != "seuss" {
		t.Errorf("backend = %q", c.Platform().Backend().Name())
	}
	fns := []Function{NOP(0), NOP(1)}
	res := c.RunTrial(Trial{N: 100, Fns: fns, C: 8, Seed: 1})
	if res.Completed != 100 || res.Errors != 0 {
		t.Errorf("completed=%d errors=%d", res.Completed, res.Errors)
	}
	if res.Throughput() <= 0 {
		t.Error("no throughput")
	}
	sum := Summarize(res.Latencies)
	if sum.Count != 100 || sum.P50 <= 0 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestLinuxClusterTrial(t *testing.T) {
	s := New()
	c := s.NewLinuxCluster(LinuxConfig{Seed: 1})
	if c.Platform().Backend().Name() != "linux" {
		t.Errorf("backend = %q", c.Platform().Backend().Name())
	}
	res := c.RunTrial(Trial{N: 60, Fns: []Function{NOP(0)}, C: 8, Seed: 1})
	if res.Completed != 60 || res.Errors != 0 {
		t.Errorf("completed=%d errors=%d", res.Completed, res.Errors)
	}
}

func TestClusterBurstSmoke(t *testing.T) {
	s := New()
	cfg := NodeDefaults()
	cfg.HTTPHandler = func(url string) (string, time.Duration, error) {
		return "OK", 50 * time.Millisecond, nil
	}
	c, err := s.NewSeussCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := c.RunBurst(Burst{
		Threads:    8,
		BGFns:      []Function{IOBound("bg/io", "http://ext", 0)},
		BGRate:     10,
		BurstEvery: 2 * time.Second,
		BurstSize:  8,
		BurstCPUms: 20,
		Bursts:     2,
		Seed:       1,
	})
	if tl.Count("burst") != 16 {
		t.Errorf("burst count = %d", tl.Count("burst"))
	}
	if tl.Errors("") != 0 {
		t.Errorf("errors = %d", tl.Errors(""))
	}
}

func TestInvokeErrorSurfaces(t *testing.T) {
	s := New()
	node, err := s.NewNode(NodeDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.InvokeSync("bad/syntax", `function main( {`, `{}`); err == nil {
		t.Error("syntax error not surfaced")
	}
}

func TestNoAOConfig(t *testing.T) {
	s := New()
	cfg := NodeDefaults()
	cfg.NetworkAO, cfg.InterpreterAO = false, false
	node, err := s.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := node.InvokeSync("t/nop", NOPSource, `{}`)
	if err != nil {
		t.Fatal(err)
	}
	// No-AO cold starts are dramatically slower (paper: 42 ms).
	if inv.Latency < 30*time.Millisecond {
		t.Errorf("no-AO cold = %v", inv.Latency)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (time.Duration, string) {
		s := New()
		node, err := s.NewNode(NodeDefaults())
		if err != nil {
			t.Fatal(err)
		}
		inv, err := node.InvokeSync("d/fn", `function main(a) { return {v: 1 + 2}; }`, `{}`)
		if err != nil {
			t.Fatal(err)
		}
		return inv.Latency, inv.Output
	}
	l1, o1 := run()
	l2, o2 := run()
	if l1 != l2 || o1 != o2 {
		t.Errorf("nondeterministic: %v/%q vs %v/%q", l1, o1, l2, o2)
	}
}

func TestFacadeAccessorsAndDistCluster(t *testing.T) {
	s := New()
	if s.Engine() == nil {
		t.Error("Engine accessor")
	}
	tr := NewTrace(10)
	if tr == nil || tr.Len() != 0 {
		t.Error("NewTrace")
	}

	dc, err := s.NewDistCluster(DistConfig{Nodes: 2, Placer: &LocalityPlacer{Replicate: true}, SnapDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if dc.Nodes() != 2 {
		t.Errorf("nodes = %d", dc.Nodes())
	}
	inv, servedBy, err := dc.InvokeSync("dist/fn", NOPSource, `{}`)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Path != "cold" || servedBy < 0 {
		t.Errorf("first = %s on node %d", inv.Path, servedBy)
	}
	inv2, _, err := dc.InvokeSync("dist/fn", NOPSource, `{}`)
	if err != nil {
		t.Fatal(err)
	}
	if inv2.Path == "cold" {
		t.Error("second invocation went cold again")
	}
	// Every request reports its own id.
	if inv.RequestID == 0 || inv2.RequestID == inv.RequestID {
		t.Errorf("request ids = %d, %d; want two distinct non-zero ids", inv.RequestID, inv2.RequestID)
	}
	if dc.Stats().ClusterColds != 1 {
		t.Errorf("cluster colds = %d", dc.Stats().ClusterColds)
	}
	if len(dc.Holders("dist/fn")) == 0 {
		t.Error("directory empty")
	}
	// Task-level Invoke through the platform cluster.
	c, err := s.NewSeussCluster(NodeDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if c.Platform() == nil {
		t.Error("Platform accessor")
	}
}

func TestNodeInvokeRuntimeUnknown(t *testing.T) {
	s := New()
	node, err := s.NewNode(NodeDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var rtErr error
	s.Spawn("client", func(task *Task) {
		_, rtErr = node.InvokeRuntime(task, "erlang", "x/fn", NOPSource, `{}`)
	})
	s.Run()
	if rtErr == nil {
		t.Error("unknown runtime accepted through facade")
	}
}

func TestNodePoolFacade(t *testing.T) {
	pool, err := NewNodePool(PoolConfig{Shards: 2, Node: NodeDefaults()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Shards() != 2 {
		t.Fatalf("shards = %d", pool.Shards())
	}
	inv, err := pool.InvokeRuntime("", "p/hello",
		`function main(args) { return {msg: "hi " + args.who}; }`,
		`{"who": "pool"}`)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Path != "cold" {
		t.Errorf("path = %q", inv.Path)
	}
	if !strings.Contains(inv.Output, `"msg":"hi pool"`) {
		t.Errorf("output = %q", inv.Output)
	}
	inv2, err := pool.InvokeRuntime("", "p/hello",
		`function main(args) { return {msg: "hi " + args.who}; }`,
		`{"who": "pool"}`)
	if err != nil {
		t.Fatal(err)
	}
	if inv2.Path != "hot" || inv2.Shard != inv.Shard {
		t.Errorf("second invocation: path = %q, shard %d -> %d", inv2.Path, inv.Shard, inv2.Shard)
	}
	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cold != 1 || st.Hot != 1 {
		t.Errorf("stats cold=%d hot=%d", st.Cold, st.Hot)
	}
	if len(st.Shards) != 2 {
		t.Errorf("per-shard breakdown has %d entries", len(st.Shards))
	}
}

func TestPoolFacadeRobustnessSurface(t *testing.T) {
	pool, err := NewNodePool(PoolConfig{
		Shards:    2,
		Node:      NodeDefaults(),
		FaultSeed: 1,
		FaultRate: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 30; i++ {
		if _, err := pool.InvokeRuntime("", "acct/fn", NOPSource, "{}"); err != nil {
			// Injected faults surface as errors here (no retry layer in
			// the bare pool); they must at least be accounted for below.
			continue
		}
	}
	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Breakers) != 2 {
		t.Fatalf("breaker states = %v, want one per shard", st.Breakers)
	}
	for i, b := range st.Breakers {
		if b == "" {
			t.Errorf("shard %d breaker state empty", i)
		}
	}
	if st.FaultsInjected == 0 {
		t.Error("rate 0.2 over 30 invocations injected nothing")
	}
	var perShard int64
	for _, ss := range st.Shards {
		perShard += ss.Node.FaultsInjected
	}
	if perShard != st.FaultsInjected {
		t.Errorf("shards injected %d faults, the pool reports %d", perShard, st.FaultsInjected)
	}
}

// TestHostHeapPerColdFunction pins what one cached function costs the
// Go process, not the simulated node: its snapshot, its idle UC and the
// page-table nodes and frames under both. The paper's density argument
// is that this is small because pages and tables are shared, and
// host-side it holds only while page-table nodes are sized to what they
// map and frames are numbers in pointer-free tables (DESIGN.md §8). Two
// bounds: live heap, and the part of it the collector must scan on
// every cycle (runtime/metrics' /gc/scan/heap:bytes), which frame
// numbers took from 73 KB per function to under 20.
func TestHostHeapPerColdFunction(t *testing.T) {
	node, err := New().NewNode(NodeDefaults())
	if err != nil {
		t.Fatal(err)
	}
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	heap := func() (live, scannable uint64) {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		metrics.Read(sample)
		return m.HeapAlloc, sample[0].Value.Uint64()
	}
	const fns = 1000
	live0, scan0 := heap()
	for i := 0; i < fns; i++ {
		fn := NOP(i)
		if _, err := node.InvokeSync(fn.Key, fn.Source, `{}`); err != nil {
			t.Fatal(err)
		}
	}
	if st := node.Stats(); st.Cold != fns {
		t.Fatalf("cold = %d, want %d", st.Cold, fns)
	}
	live1, scan1 := heap()
	live, scannable := (live1-live0)/fns, (scan1-scan0)/fns
	t.Logf("%.1f KB of Go heap per cold function, %.1f KB of it scannable",
		float64(live)/1024, float64(scannable)/1024)
	if live > 60<<10 {
		t.Errorf("%d bytes of Go heap per cold function, want <= %d", live, 60<<10)
	}
	if scannable > 25<<10 {
		t.Errorf("%d scannable bytes per cold function, want <= %d", scannable, 25<<10)
	}
	runtime.KeepAlive(node)
}
