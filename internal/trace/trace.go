// Package trace records structured events from the SEUSS node — which
// invocation path ran, how long each stage took, when the OOM policy
// reclaimed, when snapshots were captured or evicted — on the virtual
// clock. Traces export as JSON lines or as Chrome trace-event format
// (load the file at chrome://tracing or https://ui.perfetto.dev to see
// the node's timeline).
//
// Drop accounting: a tracer built with New(max) retains at most max
// events ACROSS ITS WHOLE TREE — the budget is shared by the parent
// and every Child(), so an N-shard pool holds max events total, not
// (N+1)×max. Once the budget is spent, Record drops the newest events
// and counts them; Dropped exposes the count, Summary and the export
// metadata carry it, so a truncated trace is always distinguishable
// from a complete one.
//
// Live export: Subscribe registers a bounded channel that receives
// every subsequently recorded event (a full subscriber misses events
// rather than stalling the recorder), which is how the node serves
// /trace?follow=1 without the retained buffer being the only window
// into a run.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the node.
const (
	KindCapture Kind = "capture"
	KindInvoke  Kind = "invoke" // whole-invocation span
	KindReclaim Kind = "reclaim"
	KindEvict   Kind = "evict"
	KindDemote  Kind = "demote"  // snapshot written to the disk tier
	KindPromote Kind = "promote" // snapshot restored from the disk tier
	KindFault   Kind = "fault"   // injected or contained failure
	KindGossip  Kind = "gossip"  // scheduler manifest exchange round
	KindFetch   Kind = "fetch"   // content-addressed layer transfer
	KindStale   Kind = "stale"   // stale directory entry pruned

	KindCrash    Kind = "crash"    // member crashed, partitioned, or declared dead
	KindFailover Kind = "failover" // invocation re-picked off an unreachable member
	KindRepair   Kind = "repair"   // redundancy restored for an orphaned lineage
	KindRejoin   Kind = "rejoin"   // member rejoined and resynced its manifest

	KindWorkingSet Kind = "workingset" // working-set record/merge/prefetch activity
)

// Event is one recorded occurrence: an instant (Dur == 0) or a span.
type Event struct {
	// At is the event's start on the virtual clock.
	At time.Duration `json:"at"`
	// Dur is the span length (0 for instants).
	Dur time.Duration `json:"dur,omitempty"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// ID is the request ID for per-invocation spans (0 when the event
	// is not tied to one request).
	ID uint64 `json:"id,omitempty"`
	// Key is the function involved, if any.
	Key string `json:"key,omitempty"`
	// Path is cold/warm/hot for invocation spans.
	Path string `json:"path,omitempty"`
	// Detail carries free-form context ("3 idle UCs reclaimed").
	Detail string `json:"detail,omitempty"`
	// Reseed is the deploy generation the serving UC's RNG seed was
	// mixed with (invoke spans; 0 when the span deployed nothing new).
	Reseed uint64 `json:"reseed,omitempty"`
}

// shared is the state one tracer tree holds in common: the retention
// budget, the drop counter, and the live subscriber set. Children
// created with Child share their parent's instance, which is what
// makes New(max) a pool-wide contract.
type shared struct {
	max     int          // retention budget across the tree (0 = unlimited)
	used    atomic.Int64 // events currently retained tree-wide
	dropped atomic.Int64 // events dropped after the budget filled

	subCount atomic.Int32 // len(subs); checked before taking subMu
	subMu    sync.Mutex
	subs     []chan Event
}

// take reserves one budget slot; false means the event must drop.
func (sh *shared) take() bool {
	if sh.max <= 0 {
		return true
	}
	if sh.used.Add(1) > int64(sh.max) {
		sh.used.Add(-1)
		sh.dropped.Add(1)
		return false
	}
	return true
}

// publish fans an event out to subscribers, never blocking the
// recorder: a subscriber whose buffer is full misses the event.
func (sh *shared) publish(ev Event) {
	sh.subMu.Lock()
	for _, ch := range sh.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	sh.subMu.Unlock()
}

// Tracer accumulates events. A nil *Tracer is valid and records
// nothing, so instrumented code needs no conditionals.
//
// A Tracer is safe for concurrent use: the shards of a node pool run on
// independent goroutines and may share one tracer, so recording and
// reading are serialized by an internal mutex. Event timestamps are
// whatever virtual clock the recorder read — in a pool, events from
// different shards interleave on their own per-shard clocks.
//
// For a sharded recorder, prefer one Child per shard: each child has a
// private buffer (its mutex is never contended when only its shard
// records to it), the parent's readers see the union, and the
// retention budget stays pool-wide.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	sh     *shared
	// children are per-shard sub-tracers; readers merge them in.
	children []*Tracer
}

// New returns a tracer retaining at most max events (0 = unlimited).
// The cap covers the tracer and every Child() transitively: it is a
// tree-wide budget, not a per-buffer one.
func New(max int) *Tracer { return &Tracer{sh: &shared{max: max}} }

// Child returns a tracer recording into a private buffer while the
// parent's readers (Events, Len, ByKind, writers) see the union of the
// parent's own events and every child's. One child per shard keeps the
// record path contention-free — a child's mutex is only ever taken by
// its shard goroutine and by readers. The child draws on the parent's
// retention budget and publishes to the parent's subscribers. Safe on
// a nil tracer (returns a nil child, which records nothing).
func (t *Tracer) Child() *Tracer {
	if t == nil {
		return nil
	}
	c := &Tracer{sh: t.sh}
	t.mu.Lock()
	t.children = append(t.children, c)
	t.mu.Unlock()
	return c
}

// Record appends an event, dropping it (and counting the drop) when
// the tree-wide retention budget is spent. Safe on a nil tracer.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	if !t.sh.take() {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
	if t.sh.subCount.Load() != 0 {
		t.sh.publish(ev)
	}
}

// Dropped returns the number of events discarded tree-wide after the
// retention budget filled. Safe on a nil tracer.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.sh.dropped.Load()
}

// Subscribe registers a live feed of every event recorded anywhere in
// the tracer's tree from now on, buffered to buf events (minimum 1).
// The recorder never blocks on a subscriber: events arriving while the
// buffer is full are not delivered to that subscriber. The returned
// cancel function unregisters the feed and closes the channel; it is
// idempotent and must be called to release the subscription.
func (t *Tracer) Subscribe(buf int) (<-chan Event, func()) {
	if t == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	sh := t.sh
	sh.subMu.Lock()
	sh.subs = append(sh.subs, ch)
	sh.subMu.Unlock()
	sh.subCount.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			sh.subMu.Lock()
			for i, c := range sh.subs {
				if c == ch {
					sh.subs = append(sh.subs[:i], sh.subs[i+1:]...)
					break
				}
			}
			// Closed under subMu: publish holds the lock while sending,
			// so no send can race the close.
			close(ch)
			sh.subMu.Unlock()
			sh.subCount.Add(-1)
		})
	}
	return ch, cancel
}

// Events returns the recorded events. A tracer with children returns
// the merged union ordered by virtual timestamp (children run on
// independent clocks, so timestamp order is the only meaningful one);
// a leaf tracer returns its events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	children := t.children
	t.mu.Unlock()
	for _, c := range children {
		out = append(out, c.Events()...)
	}
	if len(children) > 0 {
		sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	}
	return out
}

// Len returns the number of recorded events, including children's.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := len(t.events)
	children := t.children
	t.mu.Unlock()
	for _, c := range children {
		n += c.Len()
	}
	return n
}

// ByKind returns the events of one kind.
func (t *Tracer) ByKind(k Kind) []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// snapshotBuffers copies each buffer in the tree separately: one slice
// for this tracer's own events plus one per (transitive) child. Each
// slice preserves its buffer's record order.
func (t *Tracer) snapshotBuffers() [][]Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	own := make([]Event, len(t.events))
	copy(own, t.events)
	children := append([]*Tracer(nil), t.children...)
	t.mu.Unlock()
	parts := [][]Event{own}
	for _, c := range children {
		parts = append(parts, c.snapshotBuffers()...)
	}
	return parts
}

// ForEachSorted visits the tree's events in virtual-timestamp order
// without first materializing one merged slice: each buffer is
// snapshotted independently and the visit is a k-way merge across
// them (k = buffers, i.e. shards + 1 — small). Each shard records on a
// monotonic virtual clock, so its buffer is normally already sorted;
// a buffer found out of order is sorted in place before merging, so
// the global ordering guarantee holds regardless. Returning false from
// fn stops the walk.
func (t *Tracer) ForEachSorted(fn func(Event) bool) {
	parts := t.snapshotBuffers()
	live := parts[:0]
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if !sort.SliceIsSorted(p, func(i, j int) bool { return p[i].At < p[j].At }) {
			sort.SliceStable(p, func(i, j int) bool { return p[i].At < p[j].At })
		}
		live = append(live, p)
	}
	heads := make([]int, len(live))
	for {
		best := -1
		for i, p := range live {
			if heads[i] < len(p) && (best < 0 || p[heads[i]].At < live[best][heads[best]].At) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		if !fn(live[best][heads[best]]) {
			return
		}
		heads[best]++
	}
}

// chromeEvent is the Chrome trace-event format record.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds
	Dur   float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the trace in Chrome trace-event JSON object
// form: {"traceEvents": [...], "otherData": {...}}, which Chrome and
// Perfetto load exactly like the bare array. Spans become complete
// ("X") events; instants become instant ("i") events. Rows (tids)
// group by event kind so the timeline reads as lanes.
//
// The array is streamed event by event — the writer never builds the
// whole converted trace in memory, so exporting a full buffer does
// not spike allocations — and otherData carries the drop accounting
// (retained and dropped event counts) so a truncated trace is
// self-describing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	lanes := map[Kind]int{}
	enc := json.NewEncoder(w)
	ce := chromeEvent{PID: 1, Args: map[string]string{}}
	var err error
	n := 0
	t.ForEachSorted(func(ev Event) bool {
		if n > 0 {
			if _, err = io.WriteString(w, ","); err != nil {
				return false
			}
		}
		lane, ok := lanes[ev.Kind]
		if !ok {
			lane = len(lanes) + 1
			lanes[ev.Kind] = lane
		}
		name := string(ev.Kind)
		if ev.Key != "" {
			name += " " + ev.Key
		}
		for k := range ce.Args {
			delete(ce.Args, k)
		}
		if ev.Path != "" {
			ce.Args["path"] = ev.Path
		}
		if ev.Detail != "" {
			ce.Args["detail"] = ev.Detail
		}
		if ev.ID != 0 {
			ce.Args["id"] = fmt.Sprintf("%d", ev.ID)
		}
		ce.Name = name
		ce.TS = float64(ev.At.Microseconds())
		ce.TID = lane
		if ev.Dur > 0 {
			ce.Phase = "X"
			ce.Dur = float64(ev.Dur.Microseconds())
		} else {
			ce.Phase = "i"
			ce.Dur = 0
		}
		err = enc.Encode(ce) // Encode's trailing newline is valid JSON whitespace
		n++
		return err == nil
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, `],"otherData":{"events":"%d","dropped":"%d"}}`, n, t.Dropped())
	return err
}
