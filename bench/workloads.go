package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"seuss"
	"seuss/internal/faas"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// Reference counts, sized for refSeconds; a run scales every one of
// them by the same factor. Rates are never scaled.
const (
	hotKeys      = 64
	hotPacedRate = 1500.0
	hotPacedRef  = 24000
	hotSatRef    = 60000

	coldPacedRate = 200.0
	coldPacedRef  = 2000
	coldSatRef    = 4000

	restartKRef      = 1500
	restartPacedRate = 300.0
	restartPacedRuns = 2 // boots C1..C2
	restartSatRuns   = 3 // boots C3..C5

	simNRef = 100000
	simMRef = 4096
	simC    = 32

	// setupRunsRef is how many times (before the run's scale, at most
	// setupRunsMax) a run performs its set-up cycle to report the
	// medians as setup_s and node.drain_s. restart_restore's set-up is two
	// full boots with their drains, and its drain a flush of K
	// snapshots: both long enough to be measured once.
	setupRunsRef = 15
	setupRunsMax = 9

	// A workload's closed-loop phases are cut into satSegments equal
	// runs of arrivals and its paced phases into pacedSegments;
	// throughput_rps and the latency percentiles are each the median
	// over the segments (see segment in load.go).
	satSegments   = 15
	pacedSegments = 5
)

// runResult is everything one run of one workload found.
type runResult struct {
	attempted int
	failed    int
	reasons   []string
	metrics   map[string]float64
	samples   map[string]int // how many samples stand behind a metric
	notes     []string
}

func (r *runResult) set(name string, v float64, samples int) {
	r.metrics[name] = v
	r.samples[name] = samples
}

func (r *runResult) invalid(format string, a ...interface{}) {
	r.failed++
	if len(r.reasons) < 10 {
		r.reasons = append(r.reasons, fmt.Sprintf(format, a...))
	}
}

func (r *runResult) absorb(p *phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, why := range p.reasons {
		if len(r.reasons) < 10 {
			r.reasons = append(r.reasons, why)
		}
	}
}

// run is one invocation of the benchmark on one workload.
type run struct {
	sb      *sandbox
	exp     *expected
	seed    int64
	scale   float64
	trace   bool
	rng     *rand.Rand
	res     *runResult
	rec     *recorder // traced runs only
	late    int
	lagUS   []float64
	lgCPU   float64 // generator CPU seconds over timed phases
	lgReqs  int
	hwmKB   float64
	setups  []float64
	drains  []float64
	counter map[string]float64 // server counters, summed over boots
}

func newRun(sb *sandbox, exp *expected, seed int64, seconds float64, trace bool) *run {
	r := &run{
		sb: sb, exp: exp, seed: seed, trace: trace,
		scale:   seconds / refSeconds,
		rng:     rand.New(rand.NewSource(seed)),
		res:     &runResult{metrics: map[string]float64{}, samples: map[string]int{}},
		counter: map[string]float64{},
	}
	if trace {
		// A traced run spends half its time on the workload's phases
		// and the rest on the ladder and the per-layer timings.
		r.scale /= 2
		r.rec = newRecorder()
	}
	return r
}

// setupRuns is the number of set-up cycles of this run: 9 at the
// default length, never fewer than 3.
func (r *run) setupRuns() int {
	return min(max(3, int(math.Round(setupRunsRef*r.scale))), setupRunsMax)
}

// count scales a reference count, keeping it even so both connections
// own the same number of arrivals.
func (r *run) count(ref int) int {
	n := int(math.Round(float64(ref) * r.scale))
	if n < 2 {
		n = 2
	}
	return n + n%2
}

// do runs a phase, folds its checks into the run and keeps the
// generator's own accounting.
func (r *run) do(n *node, p *phase) (*phaseResult, error) {
	pr, err := p.run(n.addr, n.pid, r.exp)
	if err != nil {
		return nil, err
	}
	r.res.absorb(pr)
	r.late += pr.late
	r.lagUS = append(r.lagUS, pr.lagUS...)
	r.lgCPU += pr.clientCPU
	r.lgReqs += pr.attempted
	return pr, nil
}

// stopped folds a finished boot's peak RSS into the run.
func (r *run) stopped(n *node) {
	if n.hwmKB > r.hwmKB {
		r.hwmKB = n.hwmKB
	}
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Cold         float64 `json:"cold"`
	Warm         float64 `json:"warm"`
	Hot          float64 `json:"hot"`
	Lukewarm     float64 `json:"lukewarm"`
	Errors       float64 `json:"errors"`
	Stolen       float64 `json:"stolen"`
	UCsReclaimed float64 `json:"ucs_reclaimed"`
	MemoryUsedMB float64 `json:"memory_used_mb"`
	Robustness   struct {
		Requeued float64 `json:"requeued"`
	} `json:"robustness"`
	Tier struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
		Puts   float64 `json:"puts"`
	} `json:"snapshot_tier"`
	WS struct {
		Prefetched float64 `json:"prefetched_pages"`
		Hits       float64 `json:"coverage_hits"`
		Misses     float64 `json:"coverage_misses"`
	} `json:"working_set"`
}

// collect reads a boot's /stats and /metrics and adds its counters to
// the run's. It returns the stats for the caller's own path checks.
func (r *run) collect(n *node) (*serverStats, error) {
	body, err := n.get("/stats")
	if err != nil {
		return nil, err
	}
	var st serverStats
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	prom, err := n.get("/metrics")
	if err != nil {
		return nil, err
	}
	dropped, ok := promValue(string(prom), "seuss_trace_dropped_total")
	if !ok {
		return nil, fmt.Errorf("/metrics has no seuss_trace_dropped_total")
	}
	for k, v := range map[string]float64{
		"core.hot": st.Hot, "core.cold": st.Cold, "core.warm": st.Warm, "core.lukewarm": st.Lukewarm,
		"core.ucs_reclaimed": st.UCsReclaimed, "core.ws_prefetched_pages": st.WS.Prefetched,
		"ws.hits": st.WS.Hits, "ws.misses": st.WS.Misses,
		"shardpool.stolen": st.Stolen, "shardpool.requeued": st.Robustness.Requeued,
		"snapstore.hits": st.Tier.Hits, "snapstore.misses": st.Tier.Misses, "snapstore.puts": st.Tier.Puts,
		"trace.dropped": dropped,
	} {
		r.counter[k] += v
	}
	if st.MemoryUsedMB > r.counter["core.memory_used_mb"] {
		r.counter["core.memory_used_mb"] = st.MemoryUsedMB
	}
	return &st, nil
}

// promValue finds an unlabelled sample in Prometheus text exposition.
func promValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// wantPaths checks a boot's path counters against what the phases sent.
func (r *run) wantPaths(boot string, st *serverStats, cold, warm, hot, lukewarm int) {
	got := [4]float64{st.Cold, st.Warm, st.Hot, st.Lukewarm}
	want := [4]float64{float64(cold), float64(warm), float64(hot), float64(lukewarm)}
	if got != want || st.Errors != 0 {
		r.res.invalid("%s: /stats reports cold/warm/hot/lukewarm %v errors %v, the phases sent %v", boot, got, st.Errors, want)
	}
}

// echoArrivals makes n arrivals over fns. pick chooses the function of
// arrival i; every arrival gets its own argument.
func (r *run) echoArrivals(n int, args *argSeq, pick func(i int) int) []arrival {
	arr := make([]arrival, n)
	for i := range arr {
		arr[i] = arrival{fn: pick(i), n: args.take()}
	}
	return arr
}

// eachOnce returns a pick function visiting fns 0..n-1 once each in a
// seeded order.
func (r *run) eachOnce(n int) func(i int) int {
	order := r.rng.Perm(n)
	return func(i int) int { return order[i] }
}

// finishHTTP turns the collected phases into the shared metrics of the
// three HTTP workloads.
func (r *run) finishHTTP(paced, sat []*phaseResult, fnsLoaded int) {
	var lat, p50s, p90s []float64
	var pacedCPU float64
	pacedN := 0
	for _, p := range paced {
		lat = append(lat, p.latUS...)
		p50s = append(p50s, p.segmentPercentiles(50)...)
		p90s = append(p90s, p.segmentPercentiles(90)...)
		pacedCPU += p.serverCPU
		pacedN += p.attempted
	}
	var satCPU, satElapsed, rssGrowKB float64
	var segRPS []float64
	satN := 0
	for _, p := range sat {
		segRPS = append(segRPS, p.segmentRPS()...)
		satCPU += p.serverCPU
		satElapsed += p.elapsed.Seconds()
		satN += p.attempted
		rssGrowKB += p.rssKB[1] - p.rssKB[0]
	}
	asc := sorted(lat)
	res := r.res
	res.set("setup_s", median(r.setups), len(r.setups))
	res.set("latency_p50_us", median(p50s), len(p50s))
	res.set("node.latency_p90_us", median(p90s), len(p90s))
	res.set("throughput_rps", median(segRPS), len(segRPS))
	res.set("cpu_us_per_req", satCPU/float64(satN)*1e6, satN)
	res.set("rss_peak_mb", r.hwmKB/1024, 1)
	res.notes = append(res.notes,
		fmt.Sprintf("paced segments, p50 (µs): %.0f", p50s), fmt.Sprintf("paced segments, p90 (µs): %.0f", p90s),
		fmt.Sprintf("closed-loop segments, rate (1/s): %.0f", segRPS))

	res.set("node.drain_s", median(r.drains), len(r.drains))
	res.set("node.latency_p99_us", percentile(asc, 99), len(asc))
	res.set("node.latency_max_us", percentile(asc, 100), len(asc))
	res.set("node.paced_cpu_us_per_req", pacedCPU/float64(pacedN)*1e6, pacedN)
	res.set("node.sat_mean_rps", float64(satN)/satElapsed, satN)
	res.set("node.rss_per_req_kb", rssGrowKB/float64(satN), satN)
	if fnsLoaded > 0 {
		res.set("node.rss_per_fn_kb", r.hwmKB/float64(fnsLoaded), fnsLoaded)
	}
	r.finishCounters()
}

// finishCounters reports the server counters and the generator's own
// accounting.
func (r *run) finishCounters() {
	res := r.res
	res.notes = append(res.notes, fmt.Sprintf("set-up samples (s): %.3f", r.setups), fmt.Sprintf("drain samples (s): %.3f", r.drains))
	for _, name := range []string{
		"core.hot", "core.cold", "core.warm", "core.lukewarm", "core.ucs_reclaimed",
		"core.memory_used_mb", "core.ws_prefetched_pages",
		"shardpool.stolen", "shardpool.requeued",
		"snapstore.hits", "snapstore.misses", "snapstore.puts", "trace.dropped",
	} {
		res.set(name, r.counter[name], 1)
	}
	if seen := r.counter["ws.hits"] + r.counter["ws.misses"]; seen > 0 {
		res.set("core.ws_coverage_ratio", r.counter["ws.hits"]/seen, int(seen))
	}
	if len(r.lagUS) > 0 {
		res.set("loadgen.send_lag_p99_us", percentile(sorted(r.lagUS), 99), len(r.lagUS))
	}
	res.set("loadgen.late_arrivals", float64(r.late), len(r.lagUS))
	if r.lgReqs > 0 {
		res.set("loadgen.cpu_us_per_req", r.lgCPU/float64(r.lgReqs)*1e6, r.lgReqs)
	}
}

// tracedSat repeats a closed-loop phase with span recording on and
// reports what recording cost it.
func (r *run) tracedSat(n *node, plain *phaseResult, p *phase) error {
	p.spans = r.rec
	p.name += "+spans"
	traced, err := r.do(n, p)
	if err != nil {
		return err
	}
	r.res.set("trace.overhead_pct", (1-traced.rps()/plain.rps())*100, traced.attempted)
	return nil
}

// setupCycle is the set-up every workload but restart_restore times:
// boot a node over an empty snapshot directory and cold-load hotKeys
// functions (split by parity over the two connections). Its duration is
// a setup_s sample.
func (r *run) setupCycle(fns []fn, args *argSeq) (*node, error) {
	dir, err := r.sb.snapdir()
	if err != nil {
		return nil, err
	}
	n, err := r.sb.boot("-snapdir", dir)
	if err != nil {
		return nil, err
	}
	order := r.rng.Perm(len(fns) / conns)
	pr, err := r.do(n, &phase{name: "preload", fns: fns, allow: "cold",
		arrivals: r.echoArrivals(len(fns), args, func(i int) int { return conns*order[i/conns] + i%conns })})
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, n.bootS+pr.elapsed.Seconds())
	n.snapdir = dir
	return n, nil
}

// drainSample stops a node gracefully — it flushes its resident
// snapshots to its snapshot directory — and keeps SIGTERM → exit as a
// node.drain_s sample.
func (r *run) drainSample(n *node) error {
	d, err := n.drain()
	if err != nil {
		return err
	}
	r.drains = append(r.drains, d)
	r.stopped(n)
	r.counter["snapstore.puts"] += n.flushed()
	// Gone before the kernel writes it back: a cycle's files then cost
	// the next cycle nothing.
	return os.RemoveAll(n.snapdir)
}

// setupCycles runs the set-up cycle setupRuns() times on functions of its
// own, draining each: the setup_s and node.drain_s samples of a workload
// whose measured boot is not one of them.
func (r *run) setupCycles(args *argSeq) error {
	fns := make([]fn, hotKeys)
	for i := range fns {
		fns[i] = makeFn("setup", r.seed, i)
	}
	for b := 0; b < r.setupRuns(); b++ {
		n, err := r.setupCycle(fns, args)
		if err != nil {
			return err
		}
		r.res.set("node.boot_s", n.bootS, 1)
		if err := r.drainSample(n); err != nil {
			return err
		}
	}
	return nil
}

// ---- hot_steady ----

func (r *run) hotSteady() error {
	fns := make([]fn, hotKeys)
	for i := range fns {
		fns[i] = makeFn("hot", r.seed, i)
	}
	args := newArgSeq(r.rng)
	// Connection c only ever names functions of parity c: the two
	// requests in flight never want the same idle UC, so every request
	// after the preload is hot, not warm.
	parity := func(i int) int { return 2*r.rng.Intn(hotKeys/2) + i%conns }

	// The measured boot is the last of the set-up cycles, so the hot
	// set it serves is the one it cold-loaded.
	var n *node
	for b := 0; b < r.setupRuns(); b++ {
		var err error
		if n, err = r.setupCycle(fns, args); err != nil {
			return err
		}
		if b < r.setupRuns()-1 {
			if err := r.drainSample(n); err != nil {
				return err
			}
		}
	}

	pacedArr := r.echoArrivals(r.count(hotPacedRef), args, parity)
	poisson(r.rng, pacedArr, hotPacedRate)
	paced, err := r.do(n, &phase{name: "paced", fns: fns, arrivals: pacedArr, paced: true, allow: "hot", segments: pacedSegments})
	if err != nil {
		return err
	}
	satN := r.count(hotSatRef)
	satPhase := func() *phase {
		return &phase{name: "sat", fns: fns, arrivals: r.echoArrivals(satN, args, parity), allow: "hot", segments: satSegments}
	}
	sat, err := r.do(n, satPhase())
	if err != nil {
		return err
	}
	hot := len(pacedArr) + satN
	if r.trace {
		if err := r.tracedSat(n, sat, satPhase()); err != nil {
			return err
		}
		hot += satN
	}
	st, err := r.collect(n)
	if err != nil {
		return err
	}
	r.wantPaths("hot_steady", st, hotKeys, 0, hot, 0)
	if err := r.drainSample(n); err != nil {
		return err
	}
	r.res.set("node.boot_s", n.bootS, 1)
	r.finishHTTP([]*phaseResult{paced}, []*phaseResult{sat}, 0)
	return nil
}

// ---- cold_churn ----

func (r *run) coldChurn() error {
	pacedN, satN := r.count(coldPacedRef), r.count(coldSatRef)
	total := pacedN + satN
	if r.trace {
		total += satN
	}
	fns := make([]fn, total)
	for i := range fns {
		fns[i] = makeFn("cold", r.seed, i)
	}
	args := newArgSeq(r.rng)
	order := r.rng.Perm(total)
	next := 0
	fresh := func(int) int { next++; return order[next-1] }

	if err := r.setupCycles(args); err != nil {
		return err
	}
	// The measured boot has no snapshot directory (its thousands of
	// resident snapshots are the density figure, not something to
	// flush) and nothing to preload.
	n, err := r.sb.boot()
	if err != nil {
		return err
	}

	pacedArr := r.echoArrivals(pacedN, args, fresh)
	poisson(r.rng, pacedArr, coldPacedRate)
	paced, err := r.do(n, &phase{name: "paced", fns: fns, arrivals: pacedArr, paced: true, allow: "cold", segments: pacedSegments})
	if err != nil {
		return err
	}
	satPhase := func() *phase {
		return &phase{name: "sat", fns: fns, arrivals: r.echoArrivals(satN, args, fresh), allow: "cold", segments: satSegments}
	}
	sat, err := r.do(n, satPhase())
	if err != nil {
		return err
	}
	if r.trace {
		if err := r.tracedSat(n, sat, satPhase()); err != nil {
			return err
		}
	}
	st, err := r.collect(n)
	if err != nil {
		return err
	}
	r.wantPaths("cold_churn", st, total, 0, 0, 0)
	if _, err := n.drain(); err != nil {
		return err
	}
	r.stopped(n)
	r.finishHTTP([]*phaseResult{paced}, []*phaseResult{sat}, total)
	return nil
}

// ---- restart_restore ----

func (r *run) restartRestore() error {
	k := r.count(restartKRef)
	fns := make([]fn, k)
	for i := range fns {
		fns[i] = makeFn("restart", r.seed, i)
	}
	args := newArgSeq(r.rng)
	dir, err := r.sb.snapdir()
	if err != nil {
		return err
	}
	// once sends every function exactly one request on a fresh boot.
	var spans *recorder
	once := func(name, allow, pin string, paced bool, extra ...string) (*node, *phaseResult, error) {
		n, err := r.sb.boot(append([]string{"-snapdir", dir}, extra...)...)
		if err != nil {
			return nil, nil, err
		}
		p := &phase{name: name, fns: fns, allow: allow, pin: pin, paced: paced, spans: spans,
			arrivals: r.echoArrivals(k, args, r.eachOnce(k)), segments: satSegments / restartSatRuns}
		if paced {
			poisson(r.rng, p.arrivals, restartPacedRate)
			p.segments = (pacedSegments + 1) / restartPacedRuns
		}
		pr, err := r.do(n, p)
		return n, pr, err
	}
	// end checks the boot's counters and stops it.
	end := func(n *node, boot string, graceful bool, cold, warm, lukewarm int) (float64, error) {
		st, err := r.collect(n)
		if err != nil {
			return 0, err
		}
		r.wantPaths(boot, st, cold, warm, 0, lukewarm)
		var d float64
		if graceful {
			d, err = n.drain()
			r.counter["snapstore.puts"] += n.flushed()
		} else {
			n.kill()
		}
		r.stopped(n)
		return d, err
	}

	// Set-up. Boot A loads K functions cold and flushes them at drain;
	// boot B restores each once without a working set, which records it.
	setupStart := time.Now()
	a, _, err := once("A.load", "cold", "cold", false)
	if err != nil {
		return err
	}
	if _, err := end(a, "boot A", true, k, 0, 0); err != nil {
		return err
	}
	b, first, err := once("B.first-restore", "lukewarm", "lukewarm_first", false, "-no-prewarm")
	if err != nil {
		return err
	}
	if _, err := end(b, "boot B", true, 0, 0, k); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(setupStart).Seconds())

	// Boots C: every request restores a lineage with a recorded working
	// set. Nothing new to persist, so they are killed, not drained.
	var paced, sat []*phaseResult
	for i := 0; i < restartPacedRuns+restartSatRuns; i++ {
		isPaced := i < restartPacedRuns
		c, pr, err := once(fmt.Sprintf("C%d", i+1), "lukewarm", "lukewarm", isPaced, "-no-prewarm")
		if err != nil {
			return err
		}
		if isPaced {
			paced = append(paced, pr)
		} else {
			sat = append(sat, pr)
		}
		if _, err := end(c, fmt.Sprintf("boot C%d", i+1), false, 0, 0, k); err != nil {
			return err
		}
	}

	if r.trace {
		spans = r.rec
		c, traced, err := once("C+spans", "lukewarm", "lukewarm", false, "-no-prewarm")
		if err != nil {
			return err
		}
		spans = nil
		if _, err := end(c, "boot C+spans", false, 0, 0, k); err != nil {
			return err
		}
		var plainN, plainS float64
		for _, p := range sat {
			plainN += float64(p.attempted)
			plainS += p.elapsed.Seconds()
		}
		r.res.set("trace.overhead_pct", (1-traced.rps()/(plainN/plainS))*100, k)
	}

	// Boot D prewarms all K at boot, serves each warm, and drains.
	d, warm, err := once("D.warm", "warm", "warm", false)
	if err != nil {
		return err
	}
	plainBoot := a.bootS
	r.res.set("node.boot_s", plainBoot, 1)
	r.res.set("node.prewarm_s", d.bootS-plainBoot, k)
	r.res.set("node.warm_rps", warm.rps(), k)
	r.res.set("node.first_restore_rps", first.rps(), k)
	drain, err := end(d, "boot D", true, 0, k, 0)
	if err != nil {
		return err
	}
	r.drains = append(r.drains, drain)
	r.finishHTTP(paced, sat, k)
	return nil
}

// ---- sim_trial ----

// timedInvoker stands between the trial's workers and the platform and
// times each simulated request on the host clock.
type timedInvoker struct {
	inner workload.Invoker
	latUS []float64
	spans *recorder
}

func (t *timedInvoker) Invoke(p *sim.Proc, spec workload.Spec, args string) error {
	start := time.Now()
	err := t.inner.Invoke(p, spec, args)
	end := time.Now()
	t.latUS = append(t.latUS, float64(end.Sub(start))/1e3)
	if t.spans != nil {
		t.spans.add(span{Name: "faas.Invoke", Req: uint64(len(t.latUS)), Parent: -1,
			Start: t.spans.at(start), End: t.spans.at(end)})
	}
	return err
}

// trial runs one closed-loop trial of n invocations over m NOP
// functions on a fresh default node, exactly as seuss.Cluster.RunTrial
// does, with the invoker wrapped for host timing.
func trial(seed int64, n, m, c int, spans *recorder) (seuss.TrialResult, *timedInvoker, *seuss.Cluster, error) {
	s := seuss.New()
	cl, err := s.NewSeussCluster(seuss.NodeDefaults())
	if err != nil {
		return seuss.TrialResult{}, nil, nil, err
	}
	fns := make([]seuss.Function, m)
	for i := range fns {
		fns[i] = seuss.NOP(i)
	}
	ti := &timedInvoker{inner: cl.Platform(), latUS: make([]float64, 0, n), spans: spans}
	res := seuss.Trial{N: n, Fns: fns, C: c, Seed: seed}.Run(s.Engine(), ti)
	return res, ti, cl, nil
}

func (r *run) simTrial() error {
	// The trial itself needs no server; set-up and drain are the node's,
	// measured by the same cycle the HTTP workloads use.
	if err := r.setupCycles(newArgSeq(r.rng)); err != nil {
		return err
	}

	// The pinned reference trial: small, fixed seed, compared bit for
	// bit with expected.json on every run.
	pin := r.exp.Sim
	ref, _, _, err := trial(pin.Seed, pin.N, pin.M, pin.C, nil)
	if err != nil {
		return err
	}
	sum := ref.Summary()
	got := simPin{Seed: pin.Seed, N: pin.N, M: pin.M, C: pin.C, Completed: ref.Completed, Errors: ref.Errors,
		ElapsedNS: int64(ref.Elapsed), P50NS: int64(sum.P50), P99NS: int64(sum.P99), Digest: digestTrial(ref)}
	r.res.attempted += pin.N
	if r.exp.updating {
		r.exp.Sim = got
	} else if got != pin {
		r.res.invalid("sim_trial: reference trial diverged from expected.json:\n  want %+v\n  got  %+v", pin, got)
	}

	n, m := r.count(simNRef), r.count(simMRef)
	cpu0, start := selfCPUSeconds(), time.Now()
	out, ti, cl, err := trial(r.seed, n, m, simC, nil)
	if err != nil {
		return err
	}
	elapsed, cpu := time.Since(start).Seconds(), selfCPUSeconds()-cpu0
	r.res.attempted += n
	if out.Completed != n || out.Errors != 0 {
		r.res.invalid("sim_trial: %d of %d invocations completed, %d errors", out.Completed, n, out.Errors)
	}
	simNode := cl.Platform().Backend().(*faas.SeussBackend).Node()
	st := simNode.Stats()
	if served := st.Cold + st.Warm + st.Hot; served != int64(n) || st.Cold > int64(m) || st.Errors != 0 {
		r.res.invalid("sim_trial: node served cold/warm/hot %d/%d/%d with %d errors for %d invocations over %d functions",
			st.Cold, st.Warm, st.Hot, st.Errors, n, m)
	}
	hwm, _, err := procRSSKB(os.Getpid())
	if err != nil {
		return err
	}
	asc := sorted(ti.latUS)
	res := r.res
	res.set("setup_s", median(r.setups), len(r.setups))
	res.set("latency_p50_us", percentile(asc, 50), len(asc))
	res.set("node.latency_p90_us", percentile(asc, 90), len(asc))
	res.set("throughput_rps", float64(n)/elapsed, n)
	res.set("cpu_us_per_req", cpu/float64(n)*1e6, n)
	res.set("rss_peak_mb", hwm/1024, 1)
	res.set("node.drain_s", median(r.drains), len(r.drains))

	vs := out.Summary()
	res.set("faas.virtual_rps", out.Throughput(), n)
	res.set("faas.virtual_p50_ms", float64(vs.P50)/1e6, n)
	res.set("faas.virtual_p99_ms", float64(vs.P99)/1e6, n)
	r.counter["core.hot"], r.counter["core.cold"], r.counter["core.warm"] = float64(st.Hot), float64(st.Cold), float64(st.Warm)
	r.counter["core.ucs_reclaimed"] = float64(st.UCsReclaimed)
	r.counter["core.memory_used_mb"] = float64(simNode.MemStats().BytesInUse) / 1e6
	if r.trace {
		start := time.Now()
		if _, _, _, err := trial(r.seed, n, m, simC, r.rec); err != nil {
			return err
		}
		res.set("trace.overhead_pct", (time.Since(start).Seconds()/elapsed-1)*100, n)
	}
	r.finishCounters()
	return nil
}
