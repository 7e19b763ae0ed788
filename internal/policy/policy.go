// Package policy decides WHEN function state lives and dies: how long
// an idle UC is kept warm, how long a resident snapshot lineage
// survives after its last invocation before it is demoted to the disk
// tier (scale-to-zero), and when a demoted lineage should be promoted
// back ahead of a predicted recurrence (prewarm). The mechanisms —
// UC caching, snapshot demote/promote, the pressure ladder — live in
// internal/core; this package is the pluggable decision layer on top.
//
// A Policy is consulted from exactly one goroutine (the core.Node
// owner), so implementations need no locking; Clone exists because
// shardpool hydrates one node per shard and per-key mutable state must
// not be shared across shard goroutines.
//
// All instants are sim-clock durations since engine start
// (time.Duration(eng.Now())), not wall time.
package policy

import (
	"fmt"
	"time"
)

// Policy picks per-function lifecycle windows. The zero windows mean
// scale-to-zero immediately; a negative window means never expire.
type Policy interface {
	// Name identifies the policy in stats, TSV output, and flags.
	Name() string

	// RecordInvoke observes a completed invocation of key at instant
	// now. Histogram policies learn inter-arrival times here.
	RecordInvoke(key string, now time.Duration)

	// RecordPressure observes that key lost idle state to memory
	// pressure (cap overflow or the pressure ladder), NOT to natural
	// idleness — so adaptive policies don't mistake eviction for the
	// end of an arrival burst.
	RecordPressure(key string, now time.Duration)

	// KeepAlive returns how long an idle UC of key may sit unused
	// before the reaper destroys it: 0 destroys on the next tick, a
	// negative window keeps it forever.
	KeepAlive(key string, now time.Duration) time.Duration

	// SnapshotKeepAlive returns how long the key's resident snapshot
	// lineage may sit past its last invocation before the reaper
	// demotes it to the disk tier and frees the RAM (scale-to-zero).
	// Usually ≥ KeepAlive: the UC dies first, the snapshot lingers so
	// marginal misses land warm instead of lukewarm.
	SnapshotKeepAlive(key string, now time.Duration) time.Duration

	// PrewarmAt predicts when a scaled-to-zero key should be promoted
	// back from the tier. Consulted at demote time; ok=false means no
	// prediction (wait for the next invocation to lukewarm-restore).
	PrewarmAt(key string, now time.Duration) (at time.Duration, ok bool)

	// Clone returns an independent copy with the same parameters and
	// no shared mutable state, for per-shard hydration.
	Clone() Policy
}

// NoKeepAlive scales every function to zero immediately: idle UCs are
// destroyed and lineages demoted on the first reaper tick after each
// invocation. Every recurrence pays a lukewarm restore — the
// "snapshots only, no cache" baseline.
type NoKeepAlive struct{}

func (NoKeepAlive) Name() string                                  { return "none" }
func (NoKeepAlive) RecordInvoke(string, time.Duration)            {}
func (NoKeepAlive) RecordPressure(string, time.Duration)          {}
func (NoKeepAlive) KeepAlive(string, time.Duration) time.Duration { return 0 }
func (NoKeepAlive) SnapshotKeepAlive(string, time.Duration) time.Duration {
	return 0
}
func (NoKeepAlive) PrewarmAt(string, time.Duration) (time.Duration, bool) {
	return 0, false
}
func (NoKeepAlive) Clone() Policy { return NoKeepAlive{} }

// defaultFixedWindow is the classic production keep-alive: idle state
// survives ten minutes past the last invocation.
const defaultFixedWindow = 10 * time.Minute

// FixedKeepAlive keeps every function's idle UCs and resident lineage
// for one fixed window past its last invocation, then scales to zero.
// No prediction, no prewarm — the 10-minute-style industry baseline.
type FixedKeepAlive struct {
	// Window is the idle window (0 → DefaultFixedWindow).
	Window time.Duration
}

func (f FixedKeepAlive) window() time.Duration {
	if f.Window <= 0 {
		return defaultFixedWindow
	}
	return f.Window
}

func (f FixedKeepAlive) Name() string                       { return "fixed" }
func (FixedKeepAlive) RecordInvoke(string, time.Duration)   {}
func (FixedKeepAlive) RecordPressure(string, time.Duration) {}
func (f FixedKeepAlive) KeepAlive(string, time.Duration) time.Duration {
	return f.window()
}
func (f FixedKeepAlive) SnapshotKeepAlive(string, time.Duration) time.Duration {
	return f.window()
}
func (FixedKeepAlive) PrewarmAt(string, time.Duration) (time.Duration, bool) {
	return 0, false
}
func (f FixedKeepAlive) Clone() Policy { return f }

// New builds a policy by flag name: "none" (scale-to-zero
// immediately), "fixed" (fixed keep-alive window), or "hybrid"
// (per-function inter-arrival histogram). keepalive parameterizes the
// named policy — the window for "fixed", the keep-alive cap for
// "hybrid" — and 0 means the policy default. An empty name returns
// (nil, nil): lifecycle management off.
func New(name string, keepalive time.Duration) (Policy, error) {
	switch name {
	case "":
		return nil, nil
	case "none":
		return NoKeepAlive{}, nil
	case "fixed":
		return FixedKeepAlive{Window: keepalive}, nil
	case "hybrid":
		h := NewHybrid()
		if keepalive > 0 {
			h.Max = keepalive
		}
		return h, nil
	default:
		return nil, fmt.Errorf("unknown lifecycle policy %q (want none, fixed, or hybrid)", name)
	}
}
