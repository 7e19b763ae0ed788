package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// The driver judges spread with Python's statistics.quantiles(xs, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20, 50, 40})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles(10..50) = %v %v %v, want 15 30 45", q1, q2, q3)
	}
	if got := spreadShare([]float64{10, 30, 20, 50, 40}); got != 1 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{
		{Start: 110, End: 130},
		{Start: 120, End: 140}, // overlaps the first: counted once
		{Start: 190, End: 250}, // clipped to the parent
		{Start: 10, End: 20},   // outside: ignored
	}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Errorf("selfTime = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// schedule renders the paced phase hot_steady would send for a seed.
func schedule(seed int64) ([]arrival, []byte) {
	r := &run{seed: seed, scale: 0.01, rng: rand.New(rand.NewSource(seed))}
	fns := make([]fn, hotKeys)
	for i := range fns {
		fns[i] = makeFn("hot", seed, i)
	}
	arr := r.echoArrivals(r.count(hotPacedRef), newArgSeq(r.rng), func(i int) int { return 2*r.rng.Intn(hotKeys/2) + i%conns })
	poisson(r.rng, arr, hotPacedRate)
	p := &phase{fns: fns, arrivals: arr}
	var wire []byte
	for _, a := range arr {
		wire = p.request(wire, a)
	}
	return arr, wire
}

func TestSameSeedSameSchedule(t *testing.T) {
	a1, w1 := schedule(7)
	a2, w2 := schedule(7)
	if !reflect.DeepEqual(a1, a2) || string(w1) != string(w2) {
		t.Fatal("the same seed gave two different schedules")
	}
	a3, _ := schedule(8)
	if reflect.DeepEqual(a1, a3) {
		t.Fatal("different seeds gave the same schedule")
	}
	seen := map[int64]bool{}
	for i, a := range a1 {
		if seen[a.n] {
			t.Fatalf("argument %d repeats", a.n)
		}
		seen[a.n] = true
		if a.fn%conns != i%conns {
			t.Fatalf("arrival %d names a function of the other connection's parity", i)
		}
		if i > 0 && a.due < a1[i-1].due {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
}

// BENCHMARK.json must say what spec.go says, inside the contract's
// limits.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want interface{}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	ours, _ := json.Marshal(benchManifest())
	json.Unmarshal(ours, &want)
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with -print-manifest")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloadSpecs) < 2 || len(workloadSpecs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("too many or too few workloads or metrics")
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if runSeconds < 1 || runSeconds > 60 || len(raw) > 64<<10 {
		t.Error("run_seconds or file size outside the contract")
	}
}

// A 1/100-scale pass over every workload against the freshly built
// binary: every check passes, every end-to-end metric is there and not
// zero, and between them the runs emit exactly the listed names.
func TestSmoke(t *testing.T) {
	exp, err := loadExpected(false)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := newSandbox()
	if err != nil {
		t.Fatal(err)
	}
	defer sb.close()
	listed := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		listed[m.Name] = true
	}
	emitted := map[string]bool{}
	smoke := func(workload string, trace bool) {
		res, err := runWorkload(sb, exp, workload, 3, refSeconds/100.0, trace)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", workload, res.failed, res.attempted, res.reasons)
		}
		for name, v := range res.metrics {
			emitted[name] = true
			if !listed[name] {
				t.Errorf("%s emits %q, which BENCHMARK.json does not list", workload, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", workload, name, v)
			}
		}
		if !trace {
			for _, m := range endToEnd {
				if res.metrics[m.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", workload, m.Name, res.metrics[m.Name])
				}
			}
		}
		var line jsonResult
		if err := json.Unmarshal([]byte(resultLine(res, trace)), &line); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if trace {
			want = len(perLayer)
		}
		if len(line.Metrics) != want || !line.Correct {
			t.Errorf("%s: result line has %d metrics (want %d), correct=%v", workload, len(line.Metrics), want, line.Correct)
		}
	}
	for _, w := range workloadNames() {
		smoke(w, false)
	}
	smoke("hot_steady", true)
	for name := range listed {
		if !emitted[name] {
			t.Errorf("%q is listed in BENCHMARK.json but no run emitted it", name)
		}
	}
	if _, err := os.Stat("out/trace.json"); err != nil {
		t.Errorf("the traced run left no trace: %v", err)
	}
}
