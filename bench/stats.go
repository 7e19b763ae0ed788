package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest sample with at least p % of the
// samples at or below it. It returns 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median returns the middle of xs (mean of the two middle samples for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	default:
		return (asc[n/2-1] + asc[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which
// is what the driver uses to judge a metric's run-to-run spread. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		if n == 1 {
			return asc[0], asc[0], asc[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median —
// the quantity the driver holds against a metric's bound.
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// maxRelDev is the largest relative distance of any sample from the
// median.
func maxRelDev(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	worst := 0.0
	for _, x := range xs {
		if d := math.Abs(x-m) / math.Abs(m); d > worst {
			worst = d
		}
	}
	return worst
}

// span is one traced interval: a layer boundary crossed on behalf of
// one request. Parent is the index of the causing span in the same
// recorder, -1 for a request's root. Times are nanoseconds since the
// recorder was created.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is a span's duration minus the part of its interval that
// its direct children cover (children are clipped to the parent and
// overlapping children are counted once).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return (parent.End - parent.Start) - covered
}
