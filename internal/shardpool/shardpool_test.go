package shardpool

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/sim"
)

const nopSource = `function main(args) { return {ok: true}; }`

func testConfig(shards int) Config {
	return Config{
		Shards: shards,
		Node:   core.Config{NetworkAO: true, InterpreterAO: true},
	}
}

func newTestPool(t testing.TB, cfg Config) *Pool {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestSingleShardMatchesSingleNode(t *testing.T) {
	// A 1-shard pool hydrated through the codec must behave exactly
	// like a directly booted node: same path sequence, same virtual
	// latencies. This pins the hydrate-once path to the boot-in-place
	// path.
	eng := sim.NewEngine()
	node, err := core.NewNode(eng, core.Config{NetworkAO: true, InterpreterAO: true})
	if err != nil {
		t.Fatal(err)
	}
	var direct []core.Result
	for i := 0; i < 3; i++ {
		eng.Go("inv", func(p *sim.Proc) {
			res, err := node.Invoke(p, core.Request{Key: "a/fn", Source: nopSource, Args: "{}"})
			if err != nil {
				t.Error(err)
			}
			direct = append(direct, res)
		})
		eng.Run()
	}

	pool := newTestPool(t, testConfig(1))
	for i, want := range direct {
		got, err := pool.InvokeSync("a/fn", nopSource, "{}")
		if err != nil {
			t.Fatal(err)
		}
		if got.Path != want.Path {
			t.Errorf("invocation %d: path = %v, want %v", i, got.Path, want.Path)
		}
		if got.Latency != want.Latency {
			t.Errorf("invocation %d: latency = %v, want %v (hydrated shard diverged from booted node)",
				i, got.Latency, want.Latency)
		}
	}
}

func TestRoutingLocality(t *testing.T) {
	// Sequential invocations of one key always land on its owner shard
	// and follow cold → hot.
	pool := newTestPool(t, testConfig(4))
	owner := pool.OwnerShard("loc/fn")
	for i := 0; i < 5; i++ {
		res, err := pool.InvokeSync("loc/fn", nopSource, "{}")
		if err != nil {
			t.Fatal(err)
		}
		if res.Shard != owner {
			t.Errorf("invocation %d served by shard %d, owner is %d", i, res.Shard, owner)
		}
		wantPath := core.PathHot
		if i == 0 {
			wantPath = core.PathCold
		}
		if res.Path != wantPath {
			t.Errorf("invocation %d: path = %v, want %v", i, res.Path, wantPath)
		}
	}
}

func TestConcurrentStress(t *testing.T) {
	// Parallel InvokeSync over mixed cold/warm/hot keys: no lost
	// invocations, no errors, and the aggregated per-path counters add
	// up exactly.
	const (
		shards  = 4
		workers = 16
		perW    = 25
		keys    = 10
	)
	pool := newTestPool(t, testConfig(shards))

	var wg sync.WaitGroup
	errs := make(chan error, workers*perW)
	var mu sync.Mutex
	pathCount := map[core.Path]int64{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("stress/fn%d", (w*perW+i)%keys)
				res, err := pool.InvokeSync(key, nopSource, `{"n": 1}`)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", key, err)
					return
				}
				if res.Output == "" {
					errs <- fmt.Errorf("%s: empty output", key)
					return
				}
				mu.Lock()
				pathCount[res.Path]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(workers * perW)
	var seen int64
	for _, n := range pathCount {
		seen += n
	}
	if seen != total {
		t.Fatalf("lost invocations: served %d of %d", seen, total)
	}

	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Node.Errors != 0 {
		t.Errorf("errors = %d", st.Node.Errors)
	}
	if got := st.Node.Cold + st.Node.Warm + st.Node.Hot; got != total {
		t.Errorf("aggregated paths = %d, want %d", got, total)
	}
	if st.Node.Cold != pathCount[core.PathCold] ||
		st.Node.Warm != pathCount[core.PathWarm] ||
		st.Node.Hot != pathCount[core.PathHot] {
		t.Errorf("aggregate (%d/%d/%d) != client-observed (%d/%d/%d)",
			st.Node.Cold, st.Node.Warm, st.Node.Hot,
			pathCount[core.PathCold], pathCount[core.PathWarm], pathCount[core.PathHot])
	}
	// Every key went cold at least once somewhere; with stealing a key
	// may also go cold on a thief shard, never fewer times than keys.
	if st.Node.Cold < keys {
		t.Errorf("cold = %d, want >= %d", st.Node.Cold, keys)
	}
	if len(st.Shards) != shards {
		t.Errorf("per-shard breakdown has %d entries, want %d", len(st.Shards), shards)
	}
}

func TestPerShardDeterminism(t *testing.T) {
	// Same seed, same per-shard request sequence ⇒ identical per-shard
	// virtual latencies. Stealing is disabled so routing is exactly the
	// key hash and every shard sees a reproducible sequence.
	run := func() map[string][]time.Duration {
		cfg := testConfig(4)
		cfg.DisableWorkStealing = true
		cfg.Node.Seed = 42
		pool := newTestPool(t, cfg)
		out := map[string][]time.Duration{}
		for round := 0; round < 3; round++ {
			for k := 0; k < 8; k++ {
				key := fmt.Sprintf("det/fn%d", k)
				res, err := pool.InvokeSync(key, nopSource, "{}")
				if err != nil {
					t.Fatal(err)
				}
				if res.Stolen {
					t.Fatalf("stolen request with stealing disabled")
				}
				out[key] = append(out[key], res.Latency)
			}
		}
		return out
	}
	a, b := run(), run()
	for key, la := range a {
		lb := b[key]
		for i := range la {
			if la[i] != lb[i] {
				t.Errorf("%s invocation %d: run A latency %v, run B %v", key, i, la[i], lb[i])
			}
		}
	}
}

func TestWorkStealingOverflow(t *testing.T) {
	// Every request targets ONE key (maximal skew). The first request
	// wall-clock-blocks its owner shard inside the external-HTTP
	// callback, so the follow-up requests MUST overflow and be stolen
	// by the idle shards.
	cfg := testConfig(4)
	cfg.stealThreshold = 1
	blocked := make(chan struct{}) // closed to release the stuck owner
	entered := make(chan struct{}) // signals the owner is wedged
	var enterOnce sync.Once
	cfg.Node.HTTPHandler = func(url string) (string, time.Duration, error) {
		enterOnce.Do(func() { close(entered) })
		<-blocked
		return `{"slow": true}`, 0, nil
	}
	pool := newTestPool(t, cfg)

	ioSource := `function main(args) { var body = http.get("http://svc/slow"); return {body: body}; }`
	var wedged sync.WaitGroup
	wedged.Add(1)
	go func() {
		defer wedged.Done()
		if _, err := pool.InvokeSync("skew/hotkey", ioSource, "{}"); err != nil {
			t.Error(err)
		}
	}()
	<-entered // owner shard is now stuck in the guest's http.get

	// More work for the same key: the owner cannot serve it, so it
	// overflows to the steal queue and idle shards pick it up.
	const extra = 8
	owner := pool.OwnerShard("skew/hotkey")
	var wg sync.WaitGroup
	shardsSeen := make(chan int, extra)
	invoke := func() {
		defer wg.Done()
		res, err := pool.InvokeSync("skew/hotkey", nopSource, "{}")
		if err != nil {
			t.Error(err)
			return
		}
		shardsSeen <- res.Shard
	}
	// The first extra lands in the wedged owner's queue (depth 0 → 1);
	// wait until it is visibly queued so every later submit sees a
	// backlog at or above the steal threshold and must overflow.
	wg.Add(1)
	go invoke()
	for len(pool.shards[owner].reqs) == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < extra; i++ {
		wg.Add(1)
		go invoke()
	}
	// The stolen extras finish on idle shards; the one queued on the
	// owner needs the owner released first.
	served := make([]int, 0, extra)
	for i := 0; i < extra-1; i++ {
		served = append(served, <-shardsSeen)
	}
	close(blocked)
	wg.Wait()
	wedged.Wait()
	close(shardsSeen)
	for s := range shardsSeen {
		served = append(served, s)
	}

	thieves := map[int]bool{}
	for _, s := range served {
		if s != owner {
			thieves[s] = true
		}
	}
	st, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(thieves) == 0 {
		t.Errorf("no request escaped the wedged owner shard %d (stolen=%d)", owner, st.Stolen)
	}
	if st.Stolen == 0 {
		t.Error("no requests recorded as stolen under maximal skew")
	}
	if got := st.Node.Cold + st.Node.Warm + st.Node.Hot; got != extra+1 {
		t.Errorf("aggregate paths = %d, want %d", got, extra+1)
	}
}

func TestStatsReadsDoNotTearState(t *testing.T) {
	// Hammer Stats concurrently with invocations: every snapshot must
	// be internally consistent (counters never regress, cache sizes
	// non-negative) because reads are routed through shard goroutines.
	pool := newTestPool(t, testConfig(2))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("obs/fn%d", i%6)
			if _, err := pool.InvokeSync(key, nopSource, "{}"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var lastTotal int64
	for {
		select {
		case <-done:
			return
		default:
		}
		st, err := pool.Stats()
		if err != nil {
			t.Fatal(err)
		}
		total := st.Node.Cold + st.Node.Warm + st.Node.Hot
		if total < lastTotal {
			t.Fatalf("aggregate invocation count regressed: %d -> %d", lastTotal, total)
		}
		lastTotal = total
		if st.CachedSnapshots < 0 || st.IdleUCs < 0 || st.MemoryUsedBytes < 0 {
			t.Fatalf("nonsense stats snapshot: %+v", st)
		}
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	pool := newTestPool(t, testConfig(2))
	if _, err := pool.InvokeSync("c/fn", nopSource, "{}"); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if _, err := pool.InvokeSync("c/fn", nopSource, "{}"); err != errClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if _, err := pool.Stats(); err != errClosed {
		t.Errorf("stats err = %v, want ErrClosed", err)
	}
	pool.Close() // idempotent
}

func TestRuntimeSelection(t *testing.T) {
	// Multi-runtime configs hydrate one base snapshot per interpreter
	// on every shard.
	cfg := testConfig(2)
	cfg.Node.Runtimes = []string{"nodejs", "python"}
	pool := newTestPool(t, cfg)
	res, err := pool.Invoke(core.Request{Key: "py/fn", Source: nopSource, Args: "{}", Runtime: "python"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != core.PathCold {
		t.Errorf("path = %v", res.Path)
	}
	if _, err := pool.Invoke(core.Request{Key: "rb/fn", Source: nopSource, Args: "{}", Runtime: "ruby"}); err == nil {
		t.Error("unknown runtime accepted")
	}
}

func TestNoAOReachesTemplateBoot(t *testing.T) {
	// Clearing the AO flags must affect the once-only template boot, not
	// just per-shard node construction: without AO the cold path pays
	// full first-touch initialization (~42 ms vs ~7.5 ms per Table 2).
	withAO, err := newTestPool(t, testConfig(2)).InvokeSync("ao/fn", nopSource, "{}")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.Node.NetworkAO, cfg.Node.InterpreterAO = false, false
	withoutAO, err := newTestPool(t, cfg).InvokeSync("ao/fn", nopSource, "{}")
	if err != nil {
		t.Fatal(err)
	}
	if withoutAO.Latency < 3*withAO.Latency {
		t.Errorf("no-AO cold = %v, AO cold = %v: the AO flags did not reach the template boot",
			withoutAO.Latency, withAO.Latency)
	}
}
