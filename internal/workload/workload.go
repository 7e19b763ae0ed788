// Package workload implements the paper's load-generation benchmark
// (§7) and its function corpus.
//
// The benchmark works in trials of three parameters: invocation count
// (N), function set size (M), and worker threads (C). N invocations are
// distributed across M functions in a pre-computed random order
// (persisted per seed, so trials are repeatable); C workers pull
// requests one at a time from a shared queue and issue synchronous
// invocations, so at most C requests are in flight.
//
// The corpus has the three function shapes the evaluation uses: the
// NOP JavaScript function of the microbenchmarks and throughput tests,
// CPU-bound functions (≈150 ms of compute) and IO-bound functions
// (blocking ≈250 ms on an external HTTP server) for the burst
// experiments.
package workload

import (
	"fmt"
	"sort"
	"time"

	"seuss/internal/metrics"
	"seuss/internal/sim"
)

// NOPSource is the single-line NOP JavaScript function used throughout
// the evaluation to expose system-induced overheads.
const NOPSource = `function main(args) { return {}; }`

// CPUBoundSource returns a function that burns ms of CPU (the burst
// functions perform a computation that takes around 150 ms).
func CPUBoundSource(ms int) string {
	return fmt.Sprintf(`function main(args) { spin(%d); return {done: true}; }`, ms)
}

// ioBoundSource returns a function that blocks on an external HTTP
// call; the remote server's think time is configured server-side.
func ioBoundSource(url string) string {
	return fmt.Sprintf(`function main(args) { var body = http.get(%q); return {body: body}; }`, url)
}

// Spec describes one function to both backends: real source for the
// SEUSS node, and the modeled CPU/IO demands the Linux container
// backend charges.
type Spec struct {
	Key    string
	Source string
	CPU    time.Duration // in-function compute
	IO     time.Duration // external blocking time
}

// NOPSpec builds a logically unique NOP function (unique key, identical
// code — exactly the throughput experiment's setup).
func NOPSpec(i int) Spec {
	return Spec{Key: fmt.Sprintf("user%05d/nop", i), Source: NOPSource}
}

// CPUSpec builds a CPU-bound function.
func CPUSpec(key string, ms int) Spec {
	return Spec{Key: key, Source: CPUBoundSource(ms), CPU: time.Duration(ms) * time.Millisecond}
}

// IOSpec builds an IO-bound function calling url.
func IOSpec(key, url string, block time.Duration) Spec {
	return Spec{Key: key, Source: ioBoundSource(url), IO: block}
}

// Invoker is the platform interface the benchmark drives. Both the
// SEUSS- and Linux-backed clusters implement it.
type Invoker interface {
	// Invoke runs one synchronous invocation inside p.
	Invoke(p *sim.Proc, spec Spec, args string) error
}

// Trial is one benchmark trial.
type Trial struct {
	// N is the total invocation count.
	N int
	// Fns is the function set (M = len(Fns)).
	Fns []Spec
	// C is the worker thread count.
	C int
	// Seed fixes the pre-computed random send order.
	Seed int64
	// Warmup invocations are executed but excluded from measurements.
	Warmup int
}

// TrialResult aggregates a trial's outcome.
type TrialResult struct {
	Completed int
	Errors    int
	Elapsed   time.Duration
	Latencies []time.Duration
	// Completions holds each successful request's completion instant
	// (virtual time), in completion order.
	Completions []time.Duration
}

// Throughput returns successful completions per second over the whole
// measurement window (first send to last completion).
func (r TrialResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// SteadyThroughput returns the completion rate between the 5th and 95th
// percentile completion instants — the "point of stability" the paper
// reads its throughput from, insensitive to warm-in and straggler
// tails.
func (r TrialResult) SteadyThroughput() float64 {
	n := len(r.Completions)
	if n < 20 {
		return r.Throughput()
	}
	sorted := make([]time.Duration, n)
	copy(sorted, r.Completions)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	lo, hi := sorted[n/20], sorted[n-1-n/20]
	if hi <= lo {
		return r.Throughput()
	}
	count := float64(n - 2*(n/20))
	return count / (hi - lo).Seconds()
}

// Summary returns the latency percentile summary.
func (r TrialResult) Summary() metrics.Summary { return metrics.Summarize(r.Latencies) }

// Run executes the trial on the engine against the invoker and blocks
// (in real time) until the virtual-time run completes.
func (t Trial) Run(eng *sim.Engine, inv Invoker) TrialResult {
	order := t.sendOrder()
	queue := sim.NewQueue(eng)
	for _, idx := range order {
		queue.Put(idx)
	}
	queue.Close()

	var res TrialResult
	var measStart sim.Time
	measuring := t.Warmup == 0
	remainingWarmup := t.Warmup

	for w := 0; w < t.C; w++ {
		eng.Go(fmt.Sprintf("worker%d", w), func(p *sim.Proc) {
			for {
				v, ok := queue.Get(p)
				if !ok {
					return
				}
				spec := t.Fns[v.(int)]
				start := p.Now()
				err := inv.Invoke(p, spec, "{}")
				lat := time.Duration(p.Now() - start)
				if remainingWarmup > 0 {
					remainingWarmup--
					if remainingWarmup == 0 {
						measuring = true
						measStart = p.Now()
					}
					continue
				}
				if !measuring {
					continue
				}
				if err != nil {
					res.Errors++
					continue
				}
				res.Completed++
				res.Latencies = append(res.Latencies, lat)
				res.Completions = append(res.Completions, time.Duration(p.Now()))
			}
		})
	}
	eng.Run()
	res.Elapsed = time.Duration(eng.Now() - measStart)
	return res
}

// sendOrder pre-computes the random request order: N indexes into Fns.
// Every function appears at least once before random filling so small
// N with large M still covers the set.
func (t Trial) sendOrder() []int {
	rng := sim.NewRNG(t.Seed)
	order := make([]int, 0, t.N+t.Warmup)
	total := t.N + t.Warmup
	m := len(t.Fns)
	for i := 0; i < total; i++ {
		order = append(order, rng.Intn(m))
	}
	return order
}

// Burst describes the §7 burst-resiliency experiment: a rate-throttled
// background stream of IO-bound functions with periodic bursts of
// concurrent invocations of fresh CPU-bound functions.
type Burst struct {
	// Background stream: Threads workers spread across BGFns IO-bound
	// functions, throttled to BGRate requests/second in aggregate.
	Threads int
	BGFns   []Spec
	BGRate  float64
	// BurstEvery is the burst period (32 s, 16 s, or 8 s in the paper).
	BurstEvery time.Duration
	// BurstSize is the number of concurrent invocations per burst (the
	// paper does not state it; see EXPERIMENTS.md).
	BurstSize int
	// BurstCPUms is the burst function's compute time (≈150 ms).
	BurstCPUms int
	// Bursts is how many bursts to send.
	Bursts int
	// Seed fixes arrival randomness.
	Seed int64
}

// Run executes the burst experiment and returns the per-request
// timeline (the scatter data of Figures 6-8).
func (b Burst) Run(eng *sim.Engine, inv Invoker) *metrics.Timeline {
	tl := &metrics.Timeline{}
	duration := time.Duration(b.Bursts+1) * b.BurstEvery

	// Background stream: an open-loop arrival process at BGRate,
	// admitted by Threads closed-loop workers through a queue (the
	// benchmark's rate throttle).
	arrivals := sim.NewQueue(eng)
	rng := sim.NewRNG(b.Seed)
	eng.Go("bg-arrivals", func(p *sim.Proc) {
		interval := time.Duration(float64(time.Second) / b.BGRate)
		n := 0
		for time.Duration(p.Now()) < duration {
			arrivals.Put(b.BGFns[n%len(b.BGFns)])
			n++
			p.Sleep(rng.Jitter(interval, 0.1))
		}
		arrivals.Close()
	})
	for wi := 0; wi < b.Threads; wi++ {
		eng.Go(fmt.Sprintf("bg%d", wi), func(p *sim.Proc) {
			for {
				v, ok := arrivals.Get(p)
				if !ok {
					return
				}
				spec := v.(Spec)
				sent := time.Duration(p.Now())
				err := inv.Invoke(p, spec, "{}")
				tl.Add(metrics.Point{
					Sent:    sent,
					Latency: time.Duration(p.Now()) - sent,
					Err:     err != nil,
					Kind:    "background",
				})
			}
		})
	}

	// Bursts: every BurstEvery, BurstSize concurrent invocations of a
	// function never seen before (unique across bursts).
	for bi := 0; bi < b.Bursts; bi++ {
		at := time.Duration(bi+1) * b.BurstEvery
		fn := CPUSpec(fmt.Sprintf("burst%04d/cpu", bi), b.BurstCPUms)
		eng.At(sim.Time(at), func() {
			for r := 0; r < b.BurstSize; r++ {
				eng.Go("burst-req", func(p *sim.Proc) {
					sent := time.Duration(p.Now())
					err := inv.Invoke(p, fn, "{}")
					tl.Add(metrics.Point{
						Sent:    sent,
						Latency: time.Duration(p.Now()) - sent,
						Err:     err != nil,
						Kind:    "burst",
					})
				})
			}
		})
	}

	eng.Run()
	return tl
}
