// Fixed-bucket latency histograms: the production form of the
// evaluation's latency measurements. Where Summarize computes exact
// quantiles from a retained sample slice (fine for a bounded
// experiment), a Histogram is the streaming equivalent a live node
// exports — constant memory, lock-free writes, mergeable across
// shards.
//
// Observe is a bucket scan plus two atomic adds: no locks, no heap
// allocation, safe from any goroutine. A shared-nothing pool gives
// each shard its own histogram and merges snapshots on read, so the
// record path never contends.

package metrics

import (
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds, chosen to resolve the
// paper's three invocation paths: hot starts land around 100µs, warm
// starts near 1ms, cold starts at 5-20ms, and the tail buckets catch
// pressure-degraded or fault-delayed invocations. Fixed at compile
// time: pre-registered buckets are what keep Observe allocation-free.
var latencyBuckets = [...]time.Duration{
	10 * time.Microsecond,
	20 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	200 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	5 * time.Second,
}

// numBuckets counts the histogram's buckets including the implicit
// +Inf overflow bucket.
const numBuckets = len(latencyBuckets) + 1

// keepaliveBuckets are the bounds for duration-valued (not
// latency-valued) histograms — keep-alive windows run seconds to
// hours, three orders of magnitude above invocation latencies. Same
// bucket count as LatencyBuckets: every Histogram shares one storage
// layout and only the bound table differs.
var keepaliveBuckets = [len(latencyBuckets)]time.Duration{
	1 * time.Second,
	5 * time.Second,
	10 * time.Second,
	20 * time.Second,
	30 * time.Second,
	45 * time.Second,
	1 * time.Minute,
	2 * time.Minute,
	3 * time.Minute,
	5 * time.Minute,
	10 * time.Minute,
	15 * time.Minute,
	30 * time.Minute,
	1 * time.Hour,
	2 * time.Hour,
	6 * time.Hour,
	24 * time.Hour,
}

// histogram is a fixed-bucket, lock-free latency histogram. The zero
// value is ready to use. Buckets hold per-bucket (non-cumulative)
// counts; the exposition layer accumulates them into the cumulative
// form Prometheus expects.
type histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// observe records one duration against an explicit bound table (the
// Recorder picks per-Hist bounds; see boundsFor).
func (h *histogram) observe(bounds *[len(latencyBuckets)]time.Duration, d time.Duration) {
	i := 0
	for i < len(bounds) && d > bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(int64(d))
}

// snapshot returns a point-in-time copy. Concurrent Observes may land
// between bucket reads; each bucket is individually exact and the
// snapshot is monotonically consistent with earlier snapshots.
func (h *histogram) snapshot() histogramSnapshot {
	var s histogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.SumNanos = h.sum.Load()
	return s
}

// histogramSnapshot is an immutable histogram reading; the mergeable
// unit a sharded pool aggregates on scrape.
type histogramSnapshot struct {
	// Buckets are per-bucket counts; Buckets[i] counts observations in
	// (LatencyBuckets[i-1], LatencyBuckets[i]], with the final entry
	// the +Inf overflow.
	Buckets [numBuckets]int64
	// SumNanos is the sum of all observed durations in nanoseconds.
	SumNanos int64
}

// merge accumulates o into s. Element-wise addition, so merging is
// associative and commutative: any merge tree over the same shard
// snapshots yields the same aggregate.
func (s *histogramSnapshot) merge(o histogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.SumNanos += o.SumNanos
}
