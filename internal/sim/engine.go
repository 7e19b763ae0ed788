// Package sim provides a deterministic discrete-event simulation engine.
//
// All SEUSS experiments run in virtual time: latency-bearing operations
// (booting a unikernel, creating a container, a network round trip) are
// modeled as events on a shared virtual clock rather than as wall-clock
// delays. This makes the macro experiments of the paper — minutes of
// testbed time — run deterministically in milliseconds.
//
// The engine supports two styles:
//
//   - Callback events: At/After schedule a function at a virtual instant.
//   - Processes: straight-line code that can Sleep and block on Queues,
//     Resources and Signals, the way the paper's benchmark worker
//     threads are described. Go spawns one on a worker goroutine with
//     strict hand-off to the event loop; RunProc runs one on the
//     calling goroutine itself.
//
// Determinism: exactly one process or callback runs at a time; ties in
// virtual time are broken by schedule order (a monotonic sequence
// number). Given the same seed and the same program, every run produces
// identical results. The reference semantics are those of a bare
//
//	for e.Step() {
//	}
//
// loop: every Sleep pushes a wake-up event and every event is popped by
// one Step. Run, RunUntil and RunProc produce exactly that event order
// (equiv_test.go compares them on random programs) while skipping host
// work the order makes redundant. A process runs to completion, without
// leaving its goroutine, for as long as nothing else is due:
//
//   - Inline advance. A Sleep whose wake-up would provably be the next
//     event popped — nothing is pending at or before its instant, and
//     the instant is within the driving call's horizon — moves the clock
//     and returns. No event, no heap operation, no goroutine switch.
//   - Caller-run processes. RunProc's body runs on the goroutine that
//     called RunProc. When it has to wait, it steps the event loop in
//     place until its own wake-up fires, so a driver that runs one
//     process at a time (a shard serving a request) spawns no goroutine
//     and crosses no channel.
//   - Recycled workers. When a process spawned by Go finishes, its
//     goroutine and channel pair serve the next Go of the same driving
//     call; that call releases the idle ones when it returns, so no
//     goroutine outlives the work it was started for.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a virtual instant, measured in nanoseconds from the start of
// the simulation. It is deliberately a distinct type from time.Time so
// virtual and wall-clock time cannot be confused.
type Time int64

// Duration re-exports time.Duration for callers' convenience; virtual
// durations use the same unit (nanoseconds) as wall-clock durations.
type Duration = time.Duration

// String formats the instant as a duration offset from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as seconds from simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine.
//
// Ownership contract: an Engine is single-threaded by construction and
// is NOT safe for concurrent use. Every call — scheduling,
// Run/RunUntil/RunProc/Step, and every method of every Proc, Queue,
// Resource, or Signal bound to it — must come from one owning
// goroutine. Worker goroutines of processes spawned by Go hand off
// strictly, so they count as the owner while dispatched; the body of a
// RunProc process IS the owner, running on the goroutine that called
// RunProc. A sharded system therefore runs one engine per shard, each
// driven only by its shard goroutine; determinism holds per engine, and
// nothing is promised about event ordering across engines.
type Engine struct {
	now   Time
	pq    eventHeap
	seq   uint64
	procs int // live processes (for leak detection)
	// driving is set while a Run, RunUntil or RunProc call is on the
	// stack and horizon is the last instant that call may reach. A
	// bare Step leaves driving unset: it runs exactly one event, so
	// nothing may advance the clock inline under it.
	driving bool
	horizon Time
	// idle holds the workers of finished processes for the next Go;
	// the driving call that collected them releases them on return.
	idle []*worker
	// free recycles event descriptors: the scheduling hot path (every
	// Sleep, every queue wakeup) reuses a popped descriptor instead of
	// allocating one per event.
	free []*event
}

// maxFreeEvents bounds the recycled-descriptor list; beyond it, retired
// events are left to the GC.
const maxFreeEvents = 1024

// NewEngine returns an engine with the clock at zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at virtual instant t. Scheduling in the past is
// a programming error and panics: discrete-event time cannot move
// backwards.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = t, e.seq, fn
	} else {
		ev = &event{at: t, seq: e.seq, fn: fn}
	}
	heap.Push(&e.pq, ev)
}

// After schedules fn to run d after the current virtual time. Negative
// durations are treated as zero.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Step runs the single earliest pending event, advancing the clock to
// its instant. It reports whether an event was run. An engine driven by
// bare Step calls is the reference execution: every Sleep schedules its
// wake-up and parks, and each call here runs exactly one event.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(*event)
	e.now = ev.at
	fn := ev.fn
	// Recycle before running: fn may schedule (and thus reuse the
	// descriptor) immediately.
	ev.fn = nil
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
	fn()
	return true
}

// drive is the state a driving call saves on entry and restores on
// return, so a driver nested inside an event keeps the outer horizon.
type drive struct {
	driving bool
	horizon Time
}

func (e *Engine) beginDrive(horizon Time) drive {
	prev := drive{e.driving, e.horizon}
	e.driving, e.horizon = true, horizon
	return prev
}

// endDrive restores the enclosing driver's state; the outermost one
// also lets the idle workers exit.
func (e *Engine) endDrive(prev drive) {
	e.driving, e.horizon = prev.driving, prev.horizon
	if e.driving {
		return
	}
	for i, w := range e.idle {
		close(w.resume)
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// Run executes events until none remain. Processes blocked forever (for
// example, a server loop waiting on a queue that will never be filled)
// do not keep Run alive: only scheduled events do.
func (e *Engine) Run() {
	defer e.endDrive(e.beginDrive(math.MaxInt64))
	for e.Step() {
	}
}

// RunUntil executes events with instants <= t, then advances the clock
// to exactly t.
func (e *Engine) RunUntil(t Time) {
	defer e.endDrive(e.beginDrive(t))
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.pq) }

// LiveProcs returns the number of processes that have been spawned and
// not yet finished — blocked servers and leaked workers show up here
// after Run drains.
func (e *Engine) LiveProcs() int { return e.procs }
