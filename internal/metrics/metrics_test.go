package metrics

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSummarizeBasic(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 100; i++ {
		samples = append(samples, ms(i))
	}
	s := Summarize(samples)
	if s.Count != 100 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Mean != ms(50)+500*time.Microsecond {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Min != ms(1) || s.Max != ms(100) {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 < ms(50) || s.P50 > ms(51) {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P99 < ms(98) || s.P99 > ms(100) {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.P1 < ms(1) || s.P1 > ms(3) {
		t.Errorf("p1 = %v", s.P1)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]time.Duration{ms(7)})
	if s.P1 != ms(7) || s.P50 != ms(7) || s.P99 != ms(7) || s.Mean != ms(7) {
		t.Errorf("single = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []time.Duration{ms(3), ms(1), ms(2)}
	Summarize(in)
	if in[0] != ms(3) || in[2] != ms(2) {
		t.Error("input reordered")
	}
}

func TestQuantileBounds(t *testing.T) {
	sorted := []time.Duration{ms(1), ms(2), ms(3)}
	if Quantile(sorted, -1) != ms(1) || Quantile(sorted, 0) != ms(1) {
		t.Error("low quantile")
	}
	if Quantile(sorted, 1) != ms(3) || Quantile(sorted, 2) != ms(3) {
		t.Error("high quantile")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
	if q := Quantile(sorted, 0.5); q != ms(2) {
		t.Errorf("median = %v", q)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	prop := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, r := range raw {
			samples[i] = time.Duration(r) * time.Microsecond
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		qa := float64(a%101) / 100
		qb := float64(b%101) / 100
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(samples, qa) <= Quantile(samples, qb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeline(t *testing.T) {
	var tl Timeline
	tl.Add(Point{Sent: ms(0), Latency: ms(10), Kind: "background"})
	tl.Add(Point{Sent: ms(5), Latency: ms(20), Kind: "burst"})
	tl.Add(Point{Sent: ms(8), Latency: ms(1), Err: true, Kind: "burst"})
	tl.Add(Point{Sent: ms(100), Latency: ms(10), Kind: "background"})

	if tl.Count("") != 4 || tl.Count("burst") != 2 {
		t.Errorf("counts: %d %d", tl.Count(""), tl.Count("burst"))
	}
	if tl.Errors("") != 1 || tl.Errors("background") != 0 {
		t.Errorf("errors: %d %d", tl.Errors(""), tl.Errors("background"))
	}
	lats := tl.Latencies("background")
	if len(lats) != 2 || lats[0] != ms(10) {
		t.Errorf("latencies = %v", lats)
	}
	// Completions at 10ms and 110ms → max gap 100ms.
	if g := tl.MaxGap("background"); g != ms(100) {
		t.Errorf("gap = %v", g)
	}
}

func TestThroughput(t *testing.T) {
	th := Throughput{Completed: 500, Window: 10 * time.Second}
	if th.PerSecond() != 50 {
		t.Errorf("rate = %v", th.PerSecond())
	}
	if (Throughput{}).PerSecond() != 0 {
		t.Error("zero window")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"Isolation Method", "Rate", "Density"}}
	tab.AddRow("SEUSS UC", "128.6", "54000")
	tab.AddRow("Docker", "5.3", "3000")
	out := tab.String()
	if out == "" {
		t.Fatal("empty render")
	}
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 4 { // header + separator + 2 rows
		t.Errorf("rendered %d lines:\n%s", lines, out)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]time.Duration{ms(1), ms(2)})
	if got := s.String(); got == "" {
		t.Error("empty string")
	}
}

func TestMaxGapEdgeCases(t *testing.T) {
	var tl Timeline
	if tl.MaxGap("") != 0 {
		t.Error("empty timeline gap")
	}
	tl.Add(Point{Sent: 0, Latency: ms(5)})
	if tl.MaxGap("") != 0 {
		t.Error("single-point gap")
	}
	// Errors are excluded from gap computation.
	tl.Add(Point{Sent: ms(100), Latency: ms(1), Err: true})
	if tl.MaxGap("") != 0 {
		t.Error("error contributed to gaps")
	}
}

func TestLatenciesExcludeErrors(t *testing.T) {
	var tl Timeline
	tl.Add(Point{Latency: ms(1)})
	tl.Add(Point{Latency: ms(2), Err: true})
	if got := tl.Latencies(""); len(got) != 1 || got[0] != ms(1) {
		t.Errorf("latencies = %v", got)
	}
}
