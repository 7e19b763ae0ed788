package workload

import (
	"strings"
	"testing"
	"time"

	"seuss/internal/sim"
)

// traceRecorder is a PathInvoker that records arrival order and serves
// every invocation instantly.
type traceRecorder struct {
	keys  []string
	times []time.Duration
}

func (r *traceRecorder) InvokePath(p *sim.Proc, spec Spec, args string) (string, error) {
	r.keys = append(r.keys, spec.Key)
	r.times = append(r.times, time.Duration(p.Now()))
	return "hot", nil
}

func testTrace(seed int64) Trace {
	return Trace{
		Seed:    seed,
		Horizon: 4 * time.Minute,
		Keys: []TraceKey{
			{Spec: NOPSpec(0), Process: ProcPoisson, Mean: 10 * time.Second},
			{Spec: NOPSpec(1), Process: ProcLognormal, Mean: 45 * time.Second, Sigma: 0.2},
			{Spec: NOPSpec(2), Process: ProcOnce, Mean: time.Minute},
		},
	}
}

// TestPolicyTraceDeterministicPerSeed: the same seed yields the same
// schedule; a different seed yields a different one.
func TestPolicyTraceDeterministicPerSeed(t *testing.T) {
	a := testTrace(7).arrivals()
	b := testTrace(7).arrivals()
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different arrival counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := testTrace(8).arrivals()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical schedules")
	}
}

// TestPolicyTraceProcessShapes sanity-checks each arrival process:
// Poisson count near horizon/mean, lognormal gaps concentrated around
// the median, exactly one arrival for a once key, all inside the
// horizon and sorted.
func TestPolicyTraceProcessShapes(t *testing.T) {
	tr := testTrace(42)
	arr := tr.arrivals()
	counts := map[int]int{}
	var last time.Duration
	for _, a := range arr {
		if a.At < last {
			t.Fatal("arrivals not sorted by instant")
		}
		last = a.At
		if a.At < 0 || a.At >= tr.Horizon {
			t.Fatalf("arrival at %v outside [0, %v)", a.At, tr.Horizon)
		}
		counts[a.Key]++
	}
	// Poisson mean 10s over 4min → ~24 arrivals; allow wide slack.
	if n := counts[0]; n < 10 || n > 48 {
		t.Errorf("poisson key arrivals = %d, want ≈24", n)
	}
	// Lognormal median 45s over 4min → ~5-6 arrivals.
	if n := counts[1]; n < 3 || n > 10 {
		t.Errorf("lognormal key arrivals = %d, want ≈5", n)
	}
	if n := counts[2]; n != 1 {
		t.Errorf("once key arrivals = %d, want 1", n)
	}
}

// TestPolicyTraceRunOpenLoop: Run issues every arrival at its
// scheduled instant (invocations are forked, never queued behind each
// other) and reports completions.
func TestPolicyTraceRunOpenLoop(t *testing.T) {
	eng := sim.NewEngine()
	tr := testTrace(7)
	rec := &traceRecorder{}
	res := tr.Run(eng, rec)
	if res.Arrivals != len(tr.arrivals()) {
		t.Errorf("Arrivals = %d, want %d", res.Arrivals, len(tr.arrivals()))
	}
	if res.Completed != res.Arrivals || res.Errors != 0 {
		t.Errorf("Completed = %d, Errors = %d, want %d completions", res.Completed, res.Errors, res.Arrivals)
	}
	if len(res.Points) != res.Arrivals {
		t.Fatalf("Points = %d, want %d", len(res.Points), res.Arrivals)
	}
	want := tr.arrivals()
	for i, at := range rec.times {
		if at != want[i].At {
			t.Fatalf("invocation %d issued at %v, scheduled for %v", i, at, want[i].At)
		}
	}
	for _, pt := range res.Points {
		if pt.Path != "hot" || pt.Err {
			t.Fatalf("unexpected point %+v", pt)
		}
	}
}

// TestPolicyTraceCSVImport round-trips the CSV trace format and
// rejects malformed rows.
func TestPolicyTraceCSVImport(t *testing.T) {
	csvText := `key,process,mean_ms,sigma,cpu_ms
# periodic batch tick
acct/cron,lognormal,240000,0.12,
acct/api,poisson,15000,0,150
acct/oneshot,once,60000
`
	keys, err := ParseTraceCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("parsed %d keys, want 3", len(keys))
	}
	if keys[0].Process != ProcLognormal || keys[0].Mean != 4*time.Minute || keys[0].Sigma != 0.12 {
		t.Errorf("cron row parsed as %+v", keys[0])
	}
	if keys[1].Spec.CPU != 150*time.Millisecond {
		t.Errorf("cpu_ms column ignored: %+v", keys[1].Spec)
	}
	if keys[2].Process != ProcOnce || keys[2].Mean != time.Minute {
		t.Errorf("once row parsed as %+v", keys[2])
	}

	for _, bad := range []string{
		"",
		"k,warp,1000,0\n",
		"k,poisson,-5,0\n",
		"k,lognormal,1000,-1\n",
		"k,poisson\n",
	} {
		if _, err := ParseTraceCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTraceCSV(%q) did not error", bad)
		}
	}
}
