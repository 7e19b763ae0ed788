package workload

import (
	"strings"
	"testing"
	"time"

	"seuss/internal/lang"
	"seuss/internal/sim"
)

// fakeInvoker records invocations and charges a fixed latency.
type fakeInvoker struct {
	latency time.Duration
	seen    []string
	fail    func(key string) bool
}

func (f *fakeInvoker) Invoke(p *sim.Proc, spec Spec, args string) error {
	f.seen = append(f.seen, spec.Key)
	p.Sleep(f.latency)
	if f.fail != nil && f.fail(spec.Key) {
		return ErrFake
	}
	return nil
}

// ErrFake marks injected failures.
var ErrFake = errFake{}

type errFake struct{}

func (errFake) Error() string { return "injected failure" }

func TestCorpusSourcesAreValidMiniJS(t *testing.T) {
	for name, src := range map[string]string{
		"nop": NOPSource,
		"cpu": CPUBoundSource(150),
		"io":  ioBoundSource("http://ext/block"),
	} {
		if _, err := lang.Parse(src); err != nil {
			t.Errorf("%s source does not parse: %v", name, err)
		}
		if !strings.Contains(src, "function main") {
			t.Errorf("%s source lacks main", name)
		}
	}
}

func TestSpecConstructors(t *testing.T) {
	n := NOPSpec(3)
	if n.Key != "user00003/nop" || n.CPU != 0 || n.IO != 0 {
		t.Errorf("NOPSpec = %+v", n)
	}
	c := CPUSpec("k", 150)
	if c.CPU != 150*time.Millisecond {
		t.Errorf("CPUSpec = %+v", c)
	}
	i := IOSpec("k", "u", 250*time.Millisecond)
	if i.IO != 250*time.Millisecond {
		t.Errorf("IOSpec = %+v", i)
	}
}

func TestTrialRunsAllInvocations(t *testing.T) {
	eng := sim.NewEngine()
	inv := &fakeInvoker{latency: time.Millisecond}
	fns := []Spec{NOPSpec(0), NOPSpec(1), NOPSpec(2)}
	tr := Trial{N: 100, Fns: fns, C: 4, Seed: 1}
	res := tr.Run(eng, inv)
	if res.Completed != 100 || res.Errors != 0 {
		t.Errorf("completed=%d errors=%d", res.Completed, res.Errors)
	}
	if len(inv.seen) != 100 {
		t.Errorf("invoked %d", len(inv.seen))
	}
	if len(res.Latencies) != 100 {
		t.Errorf("latencies = %d", len(res.Latencies))
	}
}

func TestTrialConcurrencyBound(t *testing.T) {
	// With C workers and 10ms latency, 100 requests take ≥ 100/C*10ms.
	eng := sim.NewEngine()
	inv := &fakeInvoker{latency: 10 * time.Millisecond}
	tr := Trial{N: 100, Fns: []Spec{NOPSpec(0)}, C: 4, Seed: 1}
	res := tr.Run(eng, inv)
	want := 250 * time.Millisecond
	if res.Elapsed < want {
		t.Errorf("elapsed %v < %v: more than C in flight", res.Elapsed, want)
	}
	if got := res.Throughput(); got < 350 || got > 450 {
		t.Errorf("throughput = %.0f/s, want ≈400", got)
	}
}

func TestTrialSendOrderDeterministic(t *testing.T) {
	mk := func() []string {
		eng := sim.NewEngine()
		inv := &fakeInvoker{latency: time.Millisecond}
		tr := Trial{N: 50, Fns: []Spec{NOPSpec(0), NOPSpec(1), NOPSpec(2), NOPSpec(3)}, C: 1, Seed: 42}
		tr.Run(eng, inv)
		return inv.seen
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("send order differs across runs with same seed")
		}
	}
}

func TestTrialDifferentSeedsDiffer(t *testing.T) {
	mk := func(seed int64) []string {
		eng := sim.NewEngine()
		inv := &fakeInvoker{latency: time.Millisecond}
		tr := Trial{N: 50, Fns: []Spec{NOPSpec(0), NOPSpec(1), NOPSpec(2), NOPSpec(3)}, C: 1, Seed: seed}
		tr.Run(eng, inv)
		return inv.seen
	}
	a, b := mk(1), mk(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical order")
	}
}

func TestTrialErrorsCounted(t *testing.T) {
	eng := sim.NewEngine()
	inv := &fakeInvoker{latency: time.Millisecond, fail: func(key string) bool {
		return key == "user00001/nop"
	}}
	tr := Trial{N: 90, Fns: []Spec{NOPSpec(0), NOPSpec(1), NOPSpec(2)}, C: 2, Seed: 7}
	res := tr.Run(eng, inv)
	if res.Errors == 0 {
		t.Error("no errors recorded")
	}
	if res.Completed+res.Errors != 90 {
		t.Errorf("completed %d + errors %d != 90", res.Completed, res.Errors)
	}
}

func TestTrialWarmupExcluded(t *testing.T) {
	eng := sim.NewEngine()
	inv := &fakeInvoker{latency: time.Millisecond}
	tr := Trial{N: 50, Fns: []Spec{NOPSpec(0)}, C: 2, Seed: 1, Warmup: 25}
	res := tr.Run(eng, inv)
	if res.Completed != 50 {
		t.Errorf("completed = %d, want 50 measured", res.Completed)
	}
	if len(inv.seen) != 75 {
		t.Errorf("total invoked = %d, want 75", len(inv.seen))
	}
}

func TestBurstTimelineStructure(t *testing.T) {
	eng := sim.NewEngine()
	inv := &fakeInvoker{latency: 5 * time.Millisecond}
	b := Burst{
		Threads:    8,
		BGFns:      []Spec{IOSpec("io0", "http://ext", 50*time.Millisecond)},
		BGRate:     20,
		BurstEvery: 2 * time.Second,
		BurstSize:  10,
		BurstCPUms: 50,
		Bursts:     3,
		Seed:       1,
	}
	tl := b.Run(eng, inv)
	if got := tl.Count("burst"); got != 30 {
		t.Errorf("burst requests = %d, want 30", got)
	}
	if tl.Count("background") < 100 {
		t.Errorf("background requests = %d, implausibly few", tl.Count("background"))
	}
	if tl.Errors("") != 0 {
		t.Errorf("errors = %d", tl.Errors(""))
	}
	// Burst requests are clustered at multiples of the period.
	for _, pt := range tl.Points {
		if pt.Kind != "burst" {
			continue
		}
		period := pt.Sent.Round(2 * time.Second)
		if diff := pt.Sent - period; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("burst request sent at %v, not on a period boundary", pt.Sent)
		}
	}
}

func TestBurstFunctionsUniqueAcrossBursts(t *testing.T) {
	eng := sim.NewEngine()
	inv := &fakeInvoker{latency: time.Millisecond}
	b := Burst{
		Threads: 2, BGFns: []Spec{NOPSpec(0)}, BGRate: 5,
		BurstEvery: time.Second, BurstSize: 4, BurstCPUms: 10, Bursts: 3, Seed: 1,
	}
	b.Run(eng, inv)
	burstKeys := map[string]bool{}
	for _, k := range inv.seen {
		if strings.HasPrefix(k, "burst") {
			burstKeys[k] = true
		}
	}
	if len(burstKeys) != 3 {
		t.Errorf("distinct burst functions = %d, want 3", len(burstKeys))
	}
}

func TestThroughputZeroElapsed(t *testing.T) {
	if (TrialResult{Completed: 10}).Throughput() != 0 {
		t.Error("zero elapsed should give zero throughput")
	}
}
