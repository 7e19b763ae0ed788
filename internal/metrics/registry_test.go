package metrics

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestQuantileKnownValues(t *testing.T) {
	// Pins the estimator: linear interpolation between closest ranks
	// (R-7). Sample {10, 20, 30, 40ms}: position = q·(n−1).
	sorted := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond,
		30 * time.Millisecond, 40 * time.Millisecond}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 10 * time.Millisecond},
		{0.25, 17500 * time.Microsecond}, // pos 0.75: 10 + 0.75·(20−10)
		{0.5, 25 * time.Millisecond},     // pos 1.5: midway 20..30
		{0.75, 32500 * time.Microsecond}, // pos 2.25: 30 + 0.25·(40−30)
		{1, 40 * time.Millisecond},
		{-0.5, 10 * time.Millisecond}, // clamped
		{1.5, 40 * time.Millisecond},  // clamped
	}
	for _, c := range cases {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("Quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample set should yield 0")
	}
	one := []time.Duration{7 * time.Millisecond}
	for _, q := range []float64{0, 0.5, 1} {
		if got := quantile(one, q); got != 7*time.Millisecond {
			t.Errorf("single-sample Quantile(%v) = %v", q, got)
		}
	}
}

func TestQuantileProperties(t *testing.T) {
	// Property check on random sorted samples: monotone in q, bounded
	// by min/max, and exact at integer rank positions.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		sorted := make([]time.Duration, n)
		var acc time.Duration
		for i := range sorted {
			acc += time.Duration(rng.Intn(1000)) * time.Microsecond
			sorted[i] = acc
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := quantile(sorted, q)
			if v < sorted[0] || v > sorted[n-1] {
				t.Fatalf("n=%d q=%v: %v outside [%v, %v]", n, q, v, sorted[0], sorted[n-1])
			}
			if v < prev {
				t.Fatalf("n=%d q=%v: quantile decreased %v -> %v", n, q, prev, v)
			}
			prev = v
		}
		// Integer positions return the order statistic (±1ns: the
		// float rank q·(n−1) can land a hair below i and the duration
		// truncation floors it).
		for i := 0; i < n; i++ {
			q := float64(i) / float64(n-1)
			if n == 1 {
				q = 0
			}
			got := quantile(sorted, q)
			if d := got - sorted[i]; d < -time.Nanosecond || d > time.Nanosecond {
				t.Fatalf("n=%d rank %d: got %v, want %v", n, i, got, sorted[i])
			}
		}
	}
}

func TestHistogramObserveBuckets(t *testing.T) {
	var h histogram
	h.Observe(5 * time.Microsecond)  // bucket 0 (≤10µs)
	h.Observe(10 * time.Microsecond) // bucket 0 (bound is inclusive)
	h.Observe(11 * time.Microsecond) // bucket 1
	h.Observe(10 * time.Second)      // +Inf overflow
	s := h.snapshot()
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[numBuckets-1] != 1 {
		t.Errorf("buckets = %v", s.Buckets)
	}
	if s.Count() != 4 {
		t.Errorf("count = %d", s.Count())
	}
	wantSum := int64(5*time.Microsecond + 10*time.Microsecond + 11*time.Microsecond + 10*time.Second)
	if s.SumNanos != wantSum {
		t.Errorf("sum = %d, want %d", s.SumNanos, wantSum)
	}
}

func TestHistogramMergeAssociative(t *testing.T) {
	// Merge must be associative (and commutative): any merge tree over
	// the same shard snapshots yields the same aggregate — the property
	// Pool.Metrics() relies on.
	rng := rand.New(rand.NewSource(7))
	mk := func() histogramSnapshot {
		var h histogram
		for i := 0; i < 100; i++ {
			h.Observe(time.Duration(rng.Intn(int(6 * time.Second))))
		}
		return h.snapshot()
	}
	a, b, c := mk(), mk(), mk()

	abThenC := a // (a+b)+c
	abThenC.merge(b)
	abThenC.merge(c)

	bc := b // a+(b+c)
	bc.merge(c)
	aThenBC := a
	aThenBC.merge(bc)

	ba := b // (b+a)+c — commutativity
	ba.merge(a)
	ba.merge(c)

	if abThenC != aThenBC || abThenC != ba {
		t.Errorf("merge not associative/commutative:\n(a+b)+c = %+v\na+(b+c) = %+v\n(b+a)+c = %+v",
			abThenC, aThenBC, ba)
	}
	if abThenC.Count() != a.Count()+b.Count()+c.Count() {
		t.Errorf("merged count = %d", abThenC.Count())
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Inc(CtrColdInvocations)
	r.AddCounter(CtrUCsDeployed, 5)
	r.Observe(HistColdLatency, time.Millisecond)
	s := r.Snapshot()
	if s.Counter(CtrColdInvocations) != 0 || s.Histogram(HistColdLatency).Count() != 0 {
		t.Error("nil recorder recorded")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	a.Inc(CtrColdInvocations)
	a.AddCounter(CtrUCsDeployed, 3)
	a.Observe(HistColdLatency, 5*time.Millisecond)
	b.Inc(CtrColdInvocations)
	b.Inc(CtrWarmInvocations)
	b.Observe(HistColdLatency, 7*time.Millisecond)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counter(CtrColdInvocations) != 2 || s.Counter(CtrWarmInvocations) != 1 ||
		s.Counter(CtrUCsDeployed) != 3 {
		t.Errorf("merged counters = %v", s.Counters)
	}
	if s.Histogram(HistColdLatency).Count() != 2 {
		t.Errorf("merged histogram count = %d", s.Histogram(HistColdLatency).Count())
	}
}

// TestWritePrometheusGolden pins the full exposition output byte for
// byte. Regenerate with: go test ./internal/metrics -run Golden -update
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRecorder()
	r.Inc(CtrColdInvocations)
	r.AddCounter(CtrWarmInvocations, 2)
	r.AddCounter(CtrHotInvocations, 7)
	r.Inc(CtrSnapshotStackHits)
	r.AddCounter(CtrSnapshotStackMisses, 3)
	r.Inc(CtrUCsDeployed)
	r.Inc(CtrBreakerTrips)
	r.Observe(HistColdLatency, 8*time.Millisecond)
	r.Observe(HistColdLatency, 15*time.Millisecond)
	r.Observe(HistWarmLatency, 600*time.Microsecond)
	r.Observe(HistHotLatency, 90*time.Microsecond)
	r.Observe(HistHotLatency, 7*time.Second) // overflow bucket

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
