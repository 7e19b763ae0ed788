package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"seuss/internal/mem"
	"seuss/internal/metrics"
	"seuss/internal/sim"
	"seuss/internal/trace"
)

const nopSource = `function main(args) { return {}; }`

func newTestNode(t *testing.T, cfg Config) (*Node, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	n, err := NewNode(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, eng
}

// invoke runs a single invocation to completion and returns the result.
func invoke(t *testing.T, n *Node, eng *sim.Engine, req Request) (Result, error) {
	t.Helper()
	var res Result
	var err error
	eng.Go("client", func(p *sim.Proc) {
		res, err = n.Invoke(p, req)
	})
	eng.Run()
	return res, err
}

func TestInvokePathProgression(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}

	r1, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Path != PathCold {
		t.Errorf("first = %v, want cold", r1.Path)
	}
	if !strings.Contains(r1.Output, `"ok":true`) {
		t.Errorf("output = %q", r1.Output)
	}

	// The cold path cached both a snapshot and an idle UC: next is hot.
	r2, _ := invoke(t, n, eng, req)
	if r2.Path != PathHot {
		t.Errorf("second = %v, want hot", r2.Path)
	}

	st := n.Stats()
	if st.Cold != 1 || st.Hot != 1 || st.SnapshotsCaptured != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWarmPathWhenIdleUCBusyOrAbsent(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	req := Request{Key: "fn", Source: nopSource, Args: "{}"}
	invoke(t, n, eng, req) // cold, caches idle UC + snapshot

	// Two concurrent invocations: one takes the idle UC (hot), the
	// other must deploy from the snapshot (warm).
	var paths []Path
	for i := 0; i < 2; i++ {
		eng.Go("client", func(p *sim.Proc) {
			res, err := n.Invoke(p, req)
			if err != nil {
				t.Error(err)
				return
			}
			paths = append(paths, res.Path)
		})
	}
	eng.Run()
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	hot, warm := 0, 0
	for _, p := range paths {
		switch p {
		case PathHot:
			hot++
		case PathWarm:
			warm++
		}
	}
	if hot != 1 || warm != 1 {
		t.Errorf("paths = %v, want one hot one warm", paths)
	}
}

func TestLatenciesMatchTable1(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	req := Request{Key: "fn", Source: nopSource, Args: "{}"}
	cold, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	hot, _ := invoke(t, n, eng, req)

	// Force a warm start by invoking twice concurrently (see above) —
	// simpler: drain the idle cache.
	n.reclaimAll(nil)
	warm, _ := invoke(t, n, eng, req)

	if warm.Path != PathWarm {
		t.Fatalf("expected warm, got %v", warm.Path)
	}
	// Table 1 (after AO): cold 7.5 ms, warm 3.5 ms, hot 0.8 ms.
	if cold.Latency < 5*time.Millisecond || cold.Latency > 11*time.Millisecond {
		t.Errorf("cold = %v", cold.Latency)
	}
	if warm.Latency < 2*time.Millisecond || warm.Latency > 6*time.Millisecond {
		t.Errorf("warm = %v", warm.Latency)
	}
	if hot.Latency < 300*time.Microsecond || hot.Latency > 2*time.Millisecond {
		t.Errorf("hot = %v", hot.Latency)
	}
}

func TestDistinctFunctionsIsolated(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	counter := `var n = 0; function main(args) { n = n + 1; return {n: n}; }`
	a := Request{Key: "alice/counter", Source: counter, Args: "{}"}
	b := Request{Key: "bob/counter", Source: counter, Args: "{}"}
	invoke(t, n, eng, a)
	invoke(t, n, eng, a)
	ra, _ := invoke(t, n, eng, a)
	rb, _ := invoke(t, n, eng, b)
	if !strings.Contains(ra.Output, `"n":3`) {
		t.Errorf("a = %q", ra.Output)
	}
	if !strings.Contains(rb.Output, `"n":1`) {
		t.Errorf("functions share state: %q", rb.Output)
	}
	if n.CachedSnapshots() != 2 {
		t.Errorf("snapshots = %d", n.CachedSnapshots())
	}
}

func TestFunctionErrorReturnsDriverError(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	req := Request{Key: "bad", Source: `function main(args) { throw "boom"; }`, Args: "{}"}
	res, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, `"ok": false`) || !strings.Contains(res.Output, "boom") {
		t.Errorf("output = %q", res.Output)
	}
}

// newObservedNode is newTestNode with a private tracer and recorder.
func newObservedNode(t *testing.T) (*Node, *sim.Engine, *trace.Tracer, *metrics.Recorder) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Tracer, cfg.Metrics = trace.New(0), metrics.NewRecorder()
	n, eng := newTestNode(t, cfg)
	return n, eng, cfg.Tracer, cfg.Metrics
}

// requireOneFailedColdRequest: a request that failed before its function
// ran is still one request — one invoke span saying so, one error in
// each ledger — and leaves no UC or proxy mapping behind.
func requireOneFailedColdRequest(t *testing.T, n *Node, tr *trace.Tracer, rec *metrics.Recorder) {
	t.Helper()
	spans := tr.ByKind(trace.KindInvoke)
	if len(spans) != 1 {
		t.Fatalf("invoke spans = %d, want 1: /trace cannot show the request that failed", len(spans))
	}
	if spans[0].Path != "cold" || !strings.HasPrefix(spans[0].Detail, "error: ") {
		t.Errorf("span = %+v, want path cold and an error detail", spans[0])
	}
	if got := n.Stats().Errors; got != 1 {
		t.Errorf("Stats().Errors = %d, want 1", got)
	}
	if got := rec.Snapshot().Counter(metrics.CtrInvokeErrors); got != 1 {
		t.Errorf("CtrInvokeErrors = %d, want 1", got)
	}
	if n.IdleUCs() != 0 {
		t.Errorf("idle UCs = %d after a failed request", n.IdleUCs())
	}
	if in, out := n.Proxy().Mappings(); in != 0 || out != 0 {
		t.Errorf("proxy mappings leaked: %d internal, %d external", in, out)
	}
}

func TestBadSourceFailsColdPath(t *testing.T) {
	n, eng, tr, rec := newObservedNode(t)
	req := Request{Key: "syntax", Source: `function main( {`, Args: "{}"}
	_, err := invoke(t, n, eng, req)
	if err == nil {
		t.Fatal("syntax error accepted")
	}
	requireOneFailedColdRequest(t, n, tr, rec)
}

func TestCPUBoundFunctionChargesCores(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	req := Request{Key: "cpu", Source: `function main(args) { spin(150); return {}; }`, Args: "{}"}
	res, err := invoke(t, n, eng, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency < 150*time.Millisecond {
		t.Errorf("CPU-bound latency = %v, want >150ms", res.Latency)
	}
}

func TestIOBoundFunctionBlocksWithoutCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.HTTPHandler = func(url string) (string, time.Duration, error) {
		return "OK", 250 * time.Millisecond, nil
	}
	n, eng := newTestNode(t, cfg)
	ioSrc := `function main(args) { return {body: http.get("http://ext/")}; }`

	// Two IO-bound invocations on a single core: if blocking held the
	// core, they would serialize to ≈500ms; overlapped they finish in
	// ≈250ms + overheads.
	var done []sim.Time
	for i := 0; i < 2; i++ {
		key := []string{"io-a", "io-b"}[i]
		eng.Go("client", func(p *sim.Proc) {
			if _, err := n.Invoke(p, Request{Key: key, Source: ioSrc, Args: "{}"}); err != nil {
				t.Error(err)
				return
			}
			done = append(done, p.Now())
		})
	}
	eng.Run()
	if len(done) != 2 {
		t.Fatal("invocations lost")
	}
	last := time.Duration(done[1])
	if last > 400*time.Millisecond {
		t.Errorf("two overlapped IO invocations took %v; blocking is holding the core", last)
	}
}

func TestCoreContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	n, eng := newTestNode(t, cfg)
	src := `function main(args) { spin(100); return {}; }`
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		key := []string{"a", "b", "c"}[i]
		eng.Go("client", func(p *sim.Proc) {
			if _, err := n.Invoke(p, Request{Key: key, Source: src, Args: "{}"}); err != nil {
				t.Error(err)
				return
			}
			finish = append(finish, p.Now())
		})
	}
	eng.Run()
	if len(finish) != 3 {
		t.Fatal("lost invocations")
	}
	// 3 x 100ms of CPU on one core: the last completion is past 300ms.
	if last := time.Duration(finish[2]); last < 300*time.Millisecond {
		t.Errorf("last finish = %v; CPU not contended", last)
	}
}

func TestOOMReclaimsIdleUCs(t *testing.T) {
	cfg := DefaultConfig()
	// Budget: runtime image ≈117MB + room for ~17 cached functions
	// (snapshot + idle UC ≈ 3.8MB each) before the 2% threshold bites.
	cfg.MemoryBytes = 180 << 20
	n, eng := newTestNode(t, cfg)

	// Create many distinct functions; idle UCs accumulate until the
	// OOM threshold reclaims the oldest.
	for i := 0; i < 25; i++ {
		req := Request{Key: "fn" + string(rune('a'+i)), Source: nopSource, Args: "{}"}
		if _, err := invoke(t, n, eng, req); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	if n.Stats().UCsReclaimed == 0 {
		t.Error("OOM policy never reclaimed an idle UC")
	}
	if n.Stats().Errors != 0 {
		t.Errorf("errors = %d; reclaim should prevent failures", n.Stats().Errors)
	}
}

func TestSnapshotEvictionUnderMemoryPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryBytes = 180 << 20
	n, eng := newTestNode(t, cfg)
	for i := 0; i < 40; i++ {
		req := Request{Key: "fn" + string(rune('0'+i%10)) + string(rune('a'+i/10)), Source: nopSource, Args: "{}"}
		if _, err := invoke(t, n, eng, req); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	st := n.Stats()
	if st.SnapshotsEvicted == 0 {
		t.Errorf("no snapshot evictions under pressure: %+v", st)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
}

func TestDeployIdleFootprint(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	var foot int64
	eng.Go("d", func(p *sim.Proc) {
		u, err := n.DeployIdle(p)
		if err != nil {
			t.Error(err)
			return
		}
		foot = u.FootprintBytes()
	})
	eng.Run()
	if foot < 1<<20 || foot > 3<<20 {
		t.Errorf("idle UC footprint = %.2f MB, want ≈1.6", float64(foot)/1e6)
	}
}

func TestAblationNoAOColdSlower(t *testing.T) {
	fast, engF := newTestNode(t, DefaultConfig())
	slowCfg := DefaultConfig()
	slowCfg.NetworkAO, slowCfg.InterpreterAO = false, false
	slow, engS := newTestNode(t, slowCfg)

	req := Request{Key: "fn", Source: nopSource, Args: "{}"}
	rf, err := invoke(t, fast, engF, req)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := invoke(t, slow, engS, req)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Latency < 3*rf.Latency {
		t.Errorf("no-AO cold %v not >3x AO cold %v (paper: 42 vs 7.5 ms)", rs.Latency, rf.Latency)
	}
}

func TestNoFrameLeakAcrossInvocations(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	req := Request{Key: "fn", Source: nopSource, Args: "{}"}
	invoke(t, n, eng, req)
	base := n.MemStats().FramesInUse

	// Steady-state hot invocations must not grow memory monotonically
	// beyond the cached UC's accumulation, which reclaim can recover.
	for i := 0; i < 10; i++ {
		invoke(t, n, eng, req)
	}
	n.reclaimAll(nil)
	after := n.MemStats().FramesInUse
	// The fn snapshot remains; idle UCs are gone. Allow the snapshot
	// plus slack.
	if after > base+int64(10*mem.PageSize) && after > base*2 {
		t.Errorf("frames grew %d → %d", base, after)
	}
}

func TestPathString(t *testing.T) {
	if PathCold.String() != "cold" || PathWarm.String() != "warm" || PathHot.String() != "hot" {
		t.Error("path names")
	}
}

func TestProxyMappingsTrackUCs(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	req := Request{Key: "fn", Source: nopSource, Args: "{}"}
	invoke(t, n, eng, req)
	in, _ := n.Proxy().Mappings()
	if in == 0 {
		t.Error("no internal proxy mapping for the cached idle UC")
	}
	// Reclaiming the idle UCs removes their mappings.
	n.reclaimAll(nil)
	in, _ = n.Proxy().Mappings()
	if in != 0 {
		t.Errorf("mappings leaked after reclaim: %d", in)
	}
}

func TestUCsSpreadAcrossCores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	n, eng := newTestNode(t, cfg)
	// Deploy several idle UCs; resident cores should rotate.
	cores := map[int]bool{}
	eng.Go("d", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			mu, _, err := n.deploy(p, n.runtimeSnap, nil, PathWarm)
			if err != nil {
				t.Error(err)
				return
			}
			cores[mu.core] = true
		}
	})
	eng.Run()
	if len(cores) != 4 {
		t.Errorf("UCs placed on %d cores, want 4", len(cores))
	}
}

func TestTracerRecordsNodeTimeline(t *testing.T) {
	cfg := DefaultConfig()
	tr := trace.New(0)
	cfg.Tracer = tr
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "traced/fn", Source: nopSource, Args: "{}"}
	invoke(t, n, eng, req)
	invoke(t, n, eng, req)

	invokes := tr.ByKind(trace.KindInvoke)
	if len(invokes) != 2 {
		t.Fatalf("invoke spans = %d", len(invokes))
	}
	if invokes[0].Path != "cold" || invokes[1].Path != "hot" {
		t.Errorf("paths = %s, %s", invokes[0].Path, invokes[1].Path)
	}
	if invokes[0].Dur <= invokes[1].Dur {
		t.Errorf("cold span %v not longer than hot %v", invokes[0].Dur, invokes[1].Dur)
	}
	captures := tr.ByKind(trace.KindCapture)
	if len(captures) != 1 || captures[0].Key != "traced/fn" {
		t.Errorf("captures = %+v", captures)
	}
	// Chrome export of a real node trace parses.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("invalid chrome trace JSON")
	}
}

func TestMultiRuntimeNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runtimes = []string{"nodejs", "python"}
	n, eng := newTestNode(t, cfg)
	if got := n.Runtimes(); len(got) != 2 || got[0] != "nodejs" || got[1] != "python" {
		t.Fatalf("runtimes = %v", got)
	}

	// Invocations on each runtime; distinct base snapshots serve them.
	rn, err := invoke(t, n, eng, Request{Key: "a/node", Source: nopSource, Args: "{}", Runtime: "nodejs"})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := invoke(t, n, eng, Request{Key: "a/py", Source: nopSource, Args: "{}", Runtime: "python"})
	if err != nil {
		t.Fatal(err)
	}
	if rn.Path != PathCold || rp.Path != PathCold {
		t.Errorf("paths = %v, %v", rn.Path, rp.Path)
	}
	// Hot reuse works per runtime.
	rp2, _ := invoke(t, n, eng, Request{Key: "a/py", Source: nopSource, Args: "{}", Runtime: "python"})
	if rp2.Path != PathHot {
		t.Errorf("python second = %v", rp2.Path)
	}

	// The python runtime snapshot is far smaller than the Node.js one.
	nodeSnap := n.runtimeSnaps["nodejs"]
	pySnap := n.runtimeSnaps["python"]
	if pySnap.DiffBytes() >= nodeSnap.DiffBytes()/2 {
		t.Errorf("python image %d not much smaller than nodejs %d",
			pySnap.DiffBytes(), nodeSnap.DiffBytes())
	}
}

func TestUnknownRuntimeRejected(t *testing.T) {
	n, eng, tr, rec := newObservedNode(t)
	_, err := invoke(t, n, eng, Request{Key: "x", Source: nopSource, Args: "{}", Runtime: "ruby"})
	if err == nil {
		t.Fatal("unknown runtime accepted")
	}
	requireOneFailedColdRequest(t, n, tr, rec)
}

func TestNewNodeUnknownRuntimeFails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runtimes = []string{"fortran"}
	eng := sim.NewEngine()
	if _, err := NewNode(eng, cfg); err == nil {
		t.Fatal("bad runtime config accepted")
	}
}

func TestGuestTrafficRoutesThroughProxy(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	invoke(t, n, eng, Request{Key: "net/fn", Source: nopSource, Args: "{}"})
	in, out := n.Proxy().Traffic()
	if in == 0 || out == 0 {
		t.Errorf("proxy traffic in=%d out=%d; guest hypercalls not routed", in, out)
	}
}

// TestSnapshotMovesBetweenNodes: two nodes with identical base images
// and separate disk tiers. A flushes its function snapshot, the encoded
// layer is copied tier to tier the way a fabric fetch does, and B
// promotes it and serves warm — the diff's payload is all B needs.
func TestSnapshotMovesBetweenNodes(t *testing.T) {
	cfgA := DefaultConfig()
	cfgA.SnapStore = newTierStore(t, -1)
	a, engA := newTestNode(t, cfgA)
	req := Request{Key: "mig/fn", Source: nopSource, Args: "{}"}
	if _, err := invoke(t, a, engA, req); err != nil {
		t.Fatal(err)
	}
	if !a.HasSnapshot("mig/fn") || !a.HasIdleUC("mig/fn") {
		t.Fatal("sender missing snapshot or idle UC")
	}
	if a.FlushLineage(nil, "missing") {
		t.Error("flush of a missing snapshot succeeded")
	}
	if !a.FlushLineage(nil, "mig/fn") {
		t.Fatal("sender could not flush its snapshot")
	}

	cfgB := DefaultConfig()
	cfgB.SnapStore = newTierStore(t, -1)
	b, engB := newTestNode(t, cfgB)
	layer, ok := cfgA.SnapStore.Layer("fn/mig/fn")
	if !ok {
		t.Fatal("flush left no layer in the sender's tier")
	}
	wire, err := cfgA.SnapStore.Get("fn/mig/fn")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfgB.SnapStore.PutFetched(layer.Key, layer.Base, wire, layer.Digest); err != nil {
		t.Fatal(err)
	}
	if err := b.PromoteLineage(nil, "fn/mig/fn"); err != nil {
		t.Fatal(err)
	}
	if !b.HasSnapshot("mig/fn") {
		t.Fatal("receiver missing promoted snapshot")
	}
	// No Source in the request: the function arrives in the payload.
	res, err := invoke(t, b, engB, Request{Key: "mig/fn", Args: "{}"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathWarm {
		t.Errorf("path on receiver = %v, want warm", res.Path)
	}
	if !strings.Contains(res.Output, `"ok":true`) {
		t.Errorf("output = %q", res.Output)
	}
}

func TestNodeAccessors(t *testing.T) {
	n, eng := newTestNode(t, DefaultConfig())
	if n.Engine() != eng {
		t.Error("Engine accessor")
	}
	if n.RuntimeSnapshot() == nil || n.Store() == nil || n.Cores() == nil {
		t.Error("nil accessor")
	}
	if n.IdleUCs() != 0 {
		t.Errorf("idle = %d", n.IdleUCs())
	}
	invoke(t, n, eng, Request{Key: "fn", Source: nopSource, Args: "{}"})
	if n.IdleUCs() != 1 {
		t.Errorf("idle = %d after invoke", n.IdleUCs())
	}
}
