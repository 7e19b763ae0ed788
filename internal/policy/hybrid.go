package policy

import (
	"math"
	"time"
)

// iatBuckets is the per-key inter-arrival histogram resolution:
// quarter-octave log buckets (bucket i spans [2^(i/4), 2^((i+1)/4))
// seconds), 80 buckets covering one second to ~12 days. Sub-second
// gaps land in bucket 0. Quarter-octave granularity keeps prediction
// error under ~19%, tight enough to prewarm ahead of a periodic
// arrival without holding RAM for most of the period.
const iatBuckets = 80

// hybridKey is one function's learned arrival history.
type hybridKey struct {
	seen     bool
	last     time.Duration // instant of the most recent invocation
	samples  int           // inter-arrival gaps recorded
	pressure int           // pressure evictions observed (RecordPressure)
	hist     [iatBuckets]uint32
}

// hybrid picks per-function windows from a per-key inter-arrival-time
// histogram, after the hybrid policy of "Serverless in the Wild"
// (Shahrad et al., ATC'20): functions whose gaps are long but
// concentrated (periodic crons, batch ticks) are scaled to zero right
// away and prewarmed just before the predicted next arrival; everything
// else gets a keep-alive window sized to its tail gap (p95), clamped to
// [Min, Max]. Keys with too little history get the short Default
// window — which is what retires one-shot keys quickly.
type hybrid struct {
	// Min and Max clamp every learned keep-alive window.
	Min, Max time.Duration
	// Default is the window used before MinSamples gaps are recorded.
	Default time.Duration
	// SnapFactor stretches the snapshot window relative to the UC
	// window: the UC dies at KeepAlive, the resident lineage survives
	// SnapFactor× longer so marginal misses land warm, not lukewarm.
	SnapFactor float64
	// PrewarmMinIAT is the smallest median gap worth prewarming for;
	// below it, keeping state resident is cheaper than cycling it
	// through the disk tier.
	PrewarmMinIAT time.Duration
	// PrewarmMargin schedules the promotion at
	// last + PrewarmMargin × predicted gap (predicted from the p50
	// bucket's lower bound, so the error is always on the early side).
	PrewarmMargin float64
	// Concentration is the p95/p50 gap ratio at or below which an
	// arrival pattern counts as periodic.
	Concentration float64
	// HoldFactor bounds the post-prewarm hold: a periodic key's
	// lineage is kept resident from the prewarm instant until
	// HoldFactor × p95 after its last arrival, so a promoted snapshot
	// is not scaled back to zero in the gap between the prewarm and
	// the (slightly late) arrival it predicted. Past the hold, a
	// no-show key scales to zero like anything else.
	HoldFactor float64
	// MinSamples is how many recorded gaps the histogram needs before
	// it overrides Default.
	MinSamples int

	keys map[string]*hybridKey
}

// NewHybrid returns a Hybrid with the package defaults.
func NewHybrid() *hybrid {
	return &hybrid{
		Min:           20 * time.Second,
		Max:           10 * time.Minute,
		Default:       45 * time.Second,
		SnapFactor:    4,
		PrewarmMinIAT: 90 * time.Second,
		PrewarmMargin: 0.75,
		Concentration: 2.0,
		HoldFactor:    2.0,
		MinSamples:    2,
	}
}

func (h *hybrid) Name() string { return "hybrid" }

func (h *hybrid) RecordInvoke(key string, now time.Duration) {
	if h.keys == nil {
		h.keys = make(map[string]*hybridKey)
	}
	st := h.keys[key]
	if st == nil {
		st = &hybridKey{}
		h.keys[key] = st
	}
	if st.seen {
		if gap := now - st.last; gap >= 0 {
			st.hist[iatBucket(gap)]++
			st.samples++
			// Each fresh arrival forgives one pressure eviction, so a
			// key that resumes recurring earns its full windows back.
			if st.pressure > 0 {
				st.pressure--
			}
		}
	}
	st.seen = true
	st.last = now
}

func (h *hybrid) RecordPressure(key string, now time.Duration) {
	if st := h.keys[key]; st != nil {
		st.pressure++
	}
}

func (h *hybrid) KeepAlive(key string, now time.Duration) time.Duration {
	st := h.keys[key]
	if st == nil || st.samples < h.MinSamples {
		return h.pressureScaled(st, h.Default)
	}
	if h.periodic(st) {
		return h.Min
	}
	_, p95u := h.percentile(st, 0.95)
	return h.pressureScaled(st, clampDur(p95u, h.Min, h.Max))
}

func (h *hybrid) SnapshotKeepAlive(key string, now time.Duration) time.Duration {
	st := h.keys[key]
	if st == nil || st.samples < h.MinSamples {
		return h.pressureScaled(st, h.Default)
	}
	if h.periodic(st) {
		// The snapshot window is phase-dependent: right after an
		// arrival, scale to zero fast (Min); but once the clock passes
		// the prewarm instant, report a long window so the lineage the
		// reaper just promoted survives until the predicted arrival
		// actually lands. The hold releases at HoldFactor × p95 past
		// the last arrival, so a key that stops recurring still scales
		// back to zero within a couple of periods.
		p50l, _ := h.percentile(st, 0.50)
		_, p95u := h.percentile(st, 0.95)
		at := st.last + time.Duration(h.PrewarmMargin*float64(p50l))
		hold := st.last + time.Duration(h.holdFactor()*float64(p95u))
		if now >= at && now < hold {
			return h.Max
		}
		return h.Min
	}
	_, p95u := h.percentile(st, 0.95)
	return h.pressureScaled(st, clampDur(time.Duration(h.SnapFactor*float64(p95u)), h.Min, h.Max))
}

// holdFactor guards zero-value Hybrid literals (tests) against a
// degenerate zero-length hold.
func (h *hybrid) holdFactor() float64 {
	if h.HoldFactor <= 0 {
		return 2.0
	}
	return h.HoldFactor
}

// pressureScaled halves a window once per pressure eviction recorded
// against the key (capped at three halvings): state the node had to
// force out is state whose RAM is better spent elsewhere, so its
// windows shrink until the pressure history is outweighed by fresh
// arrivals. Periodic keys are exempt — their windows are already Min
// outside the prewarm hold, and shortening the hold would turn
// predictions into lukewarm misses.
func (h *hybrid) pressureScaled(st *hybridKey, d time.Duration) time.Duration {
	if st == nil || st.pressure == 0 {
		return d
	}
	p := st.pressure
	if p > 3 {
		p = 3
	}
	return d >> uint(p)
}

func (h *hybrid) PrewarmAt(key string, now time.Duration) (time.Duration, bool) {
	st := h.keys[key]
	if st == nil || st.samples < h.MinSamples || !h.periodic(st) {
		return 0, false
	}
	p50l, _ := h.percentile(st, 0.50)
	return st.last + time.Duration(h.PrewarmMargin*float64(p50l)), true
}

func (h *hybrid) Clone() Policy {
	c := *h
	c.keys = nil
	return &c
}

// Keys reports how many distinct functions this instance has tracked —
// observability for tests (a cloned-per-shard policy's template must
// stay at zero) and stats.
func (h *hybrid) Keys() int { return len(h.keys) }

// periodic reports whether the key's gaps are long (median at least
// PrewarmMinIAT) and concentrated (p95 within Concentration× of p50) —
// the pattern worth scaling to zero and prewarming.
func (h *hybrid) periodic(st *hybridKey) bool {
	p50l, p50u := h.percentile(st, 0.50)
	_, p95u := h.percentile(st, 0.95)
	return p50l >= h.PrewarmMinIAT && float64(p95u) <= h.Concentration*float64(p50u)
}

// percentile returns the [lower, upper) bounds of the histogram bucket
// holding the q-th gap quantile. Callers pick the bound whose error
// direction is safe: upper for keep-alive windows (never expire
// early), lower for prewarm predictions (never promote late).
func (h *hybrid) percentile(st *hybridKey, q float64) (lo, hi time.Duration) {
	target := int(math.Ceil(q * float64(st.samples)))
	if target < 1 {
		target = 1
	}
	cum := 0
	for i := 0; i < iatBuckets; i++ {
		cum += int(st.hist[i])
		if cum >= target {
			return bucketBoundsIAT(i)
		}
	}
	return bucketBoundsIAT(iatBuckets - 1)
}

// iatBucket maps a gap to its quarter-octave bucket.
func iatBucket(gap time.Duration) int {
	s := gap.Seconds()
	if s <= 1 {
		return 0
	}
	i := int(math.Floor(4 * math.Log2(s)))
	if i < 0 {
		i = 0
	}
	if i >= iatBuckets {
		i = iatBuckets - 1
	}
	return i
}

// bucketBoundsIAT returns bucket i's [lower, upper) bounds.
func bucketBoundsIAT(i int) (lo, hi time.Duration) {
	lo = time.Duration(math.Pow(2, float64(i)/4) * float64(time.Second))
	hi = time.Duration(math.Pow(2, float64(i+1)/4) * float64(time.Second))
	return lo, hi
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
