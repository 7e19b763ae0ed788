package metrics

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"time"
)

// Count returns the total number of observations.
func (s histogramSnapshot) Count() int64 {
	var n int64
	for _, b := range s.Buckets {
		n += b
	}
	return n
}

// Observe records one duration against the default latency bounds.
// Safe for concurrent use; never allocates.
func (h *histogram) Observe(d time.Duration) {
	h.observe(&latencyBuckets, d)
}

// Histogram returns one histogram's snapshot.
func (s Snapshot) Histogram(h Hist) histogramSnapshot { return s.Hists[h] }
