// Package metrics collects and summarizes the measurements the
// evaluation reports: latency percentiles (Figure 5), throughput series
// (Figure 4), and per-request timelines (Figures 6-8).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Summary is a percentile summary of a latency sample set — the
// quantiles Figure 5 plots (1st, 25th, 50th, 75th, 99th and the mean).
type Summary struct {
	Count int
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P1    time.Duration
	P25   time.Duration
	P50   time.Duration
	P75   time.Duration
	P99   time.Duration
}

// Summarize computes a Summary from samples. An empty input returns the
// zero Summary.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, s := range sorted {
		total += s
	}
	return Summary{
		Count: len(sorted),
		Mean:  total / time.Duration(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P1:    quantile(sorted, 0.01),
		P25:   quantile(sorted, 0.25),
		P50:   quantile(sorted, 0.50),
		P75:   quantile(sorted, 0.75),
		P99:   quantile(sorted, 0.99),
	}
}

// quantile returns the q-quantile (0..1) of an ascending-sorted sample
// set using linear interpolation between the closest ranks (the R-7
// estimator of Hyndman & Fan, the default in NumPy and Excel): the
// quantile position is q·(n−1), and a fractional position interpolates
// linearly between the two neighboring order statistics. See DESIGN.md
// §9 for why this estimator and how it relates to the /metrics
// histograms.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// String renders the summary on one line in milliseconds.
func (s Summary) String() string {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return fmt.Sprintf("n=%d mean=%.2fms p1=%.2f p25=%.2f p50=%.2f p75=%.2f p99=%.2f",
		s.Count, ms(s.Mean), ms(s.P1), ms(s.P25), ms(s.P50), ms(s.P75), ms(s.P99))
}

// Point is one request in a timeline: the scatter dots of Figures 6-8.
type Point struct {
	// Sent is the request's send time on the virtual clock.
	Sent time.Duration
	// Latency is the end-to-end request latency.
	Latency time.Duration
	// Err is true for failed requests (the 'x' marks in the figures).
	Err bool
	// Kind labels the workload component ("background", "burst", ...).
	Kind string
}

// Timeline records per-request points in send order.
type Timeline struct {
	Points []Point
}

// Add appends a point.
func (t *Timeline) Add(p Point) { t.Points = append(t.Points, p) }

// Errors returns the number of failed requests, optionally filtered by
// kind ("" = all).
func (t *Timeline) Errors(kind string) int {
	n := 0
	for _, p := range t.Points {
		if p.Err && (kind == "" || p.Kind == kind) {
			n++
		}
	}
	return n
}

// Count returns the number of requests of the given kind ("" = all).
func (t *Timeline) Count(kind string) int {
	n := 0
	for _, p := range t.Points {
		if kind == "" || p.Kind == kind {
			n++
		}
	}
	return n
}

// Latencies returns the latencies of successful requests of a kind.
func (t *Timeline) Latencies(kind string) []time.Duration {
	var out []time.Duration
	for _, p := range t.Points {
		if !p.Err && (kind == "" || p.Kind == kind) {
			out = append(out, p.Latency)
		}
	}
	return out
}

// MaxGap returns the longest interval between consecutive successful
// completions of a kind — the "gaps in the background stream" that show
// the Linux node stalling in Figures 6-8.
func (t *Timeline) MaxGap(kind string) time.Duration {
	var done []time.Duration
	for _, p := range t.Points {
		if !p.Err && (kind == "" || p.Kind == kind) {
			done = append(done, p.Sent+p.Latency)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var max time.Duration
	for i := 1; i < len(done); i++ {
		if g := done[i] - done[i-1]; g > max {
			max = g
		}
	}
	return max
}

// Table renders rows of labeled values as an aligned text table —
// the experiment harnesses print paper tables with it.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
