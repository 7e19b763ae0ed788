package sim

import (
	"fmt"
	"math"
)

// Proc is a simulated process (the paper's "worker thread", a container
// creation in flight, a UC executing a function…). Exactly one Proc — or
// the engine itself — runs at any moment, which keeps the simulation
// deterministic: a Proc spawned by Go runs on a worker goroutine with
// strict hand-off to the event loop, and a RunProc process runs on the
// goroutine that drives the engine.
//
// Inside a process function, blocking operations (Sleep, Queue.Get,
// Resource.Acquire) suspend the process in virtual time.
type Proc struct {
	eng  *Engine
	name string
	// w is the worker goroutine running the process: bound at the
	// first dispatch of a Go process, nil for a RunProc process.
	w *worker
	// fn is the body of a Go process until its first dispatch.
	fn func(p *Proc)
	// woken tells a RunProc process, which steps the event loop itself
	// while parked, that its wake-up event has fired.
	woken bool
	dead  bool
	// dispatchFn is the dispatch method value, bound once at spawn so
	// Sleep and unpark — the two hottest scheduling sites — do not
	// allocate a fresh closure per suspension.
	dispatchFn func()
}

// worker is a goroutine that runs Go processes one after another, and
// the channel pair it hands control back and forth on.
type worker struct {
	resume chan struct{}
	yield  chan struct{}
	p      *Proc // the process to run at the next resume
}

// Go spawns a new simulated process running fn. The process starts at
// the current virtual instant (as a scheduled event, so it does not run
// until the engine reaches it). name is used in diagnostics only.
func (e *Engine) Go(name string, fn func(p *Proc)) {
	e.After(0, e.newProc(name, fn).dispatchFn)
}

// newProc registers a live process; fn is nil for a RunProc process.
func (e *Engine) newProc(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	p.dispatchFn = p.dispatch
	e.procs++
	return p
}

// RunProc runs fn as a process on the calling goroutine and then drains
// the engine like Run; it is Go followed by Run without the goroutine.
// Processes and events fn schedules run from the same loop, whenever fn
// waits and after it returns. fn must be able to finish: a body left
// waiting with no event pending has no other goroutine to be abandoned
// on, so that panics.
func (e *Engine) RunProc(name string, fn func(p *Proc)) {
	defer e.endDrive(e.beginDrive(math.MaxInt64))
	p := e.newProc(name, nil)
	// The start event Go would schedule: anything already due at this
	// instant runs first.
	p.Sleep(0)
	fn(p)
	p.dead = true
	e.procs--
	for e.Step() {
	}
}

// takeWorker returns an idle worker, or starts one.
func (e *Engine) takeWorker() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return w
	}
	w := &worker{resume: make(chan struct{}), yield: make(chan struct{})}
	go w.loop()
	return w
}

// loop runs one process per resume until the driving call that holds
// the worker idle closes the channel, or a process ends in a way that
// leaves the worker unusable.
func (w *worker) loop() {
	for range w.resume {
		if !w.run() {
			return
		}
	}
}

// run executes the bound process to its end and yields to the event
// loop. It reports whether the worker went back on the idle list: only
// after a normal return (a panic must crash the program from this
// goroutine, and runtime.Goexit ends it), and only under a driving
// call, which is what releases idle workers.
func (w *worker) run() (recycled bool) {
	p := w.p
	e := p.eng
	defer func() {
		p.dead = true
		e.procs--
		if recycled {
			e.idle = append(e.idle, w)
		}
		w.yield <- struct{}{}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return e.driving
}

// dispatch hands control to the process and returns when it yields
// back (by blocking or finishing). Dispatching a process that has
// already finished is a scheduling bug (it would deadlock the engine),
// so it panics loudly instead.
func (p *Proc) dispatch() {
	if p.dead {
		panic("sim: dispatch of dead process " + p.name)
	}
	w := p.w
	if w == nil {
		if p.fn == nil {
			// A RunProc process is parked below us on this very
			// stack, stepping the loop that popped this event.
			p.woken = true
			return
		}
		w = p.eng.takeWorker()
		w.p, p.w = p, w
	}
	w.resume <- struct{}{}
	<-w.yield
}

// park suspends the process until a dispatch scheduled by Sleep or
// unpark fires. It must be called from inside the process.
func (p *Proc) park() {
	if w := p.w; w != nil {
		w.yield <- struct{}{}
		<-w.resume
		return
	}
	for !p.woken {
		if !p.eng.Step() {
			panic("sim: RunProc process " + p.name + " is blocked and no event is pending")
		}
	}
	p.woken = false
}

// unpark schedules the process to continue at the current virtual
// instant. It must be called from engine context (an event callback or
// another process's wake path routed through the engine).
func (p *Proc) unpark() {
	if p.dead {
		panic("sim: unpark of dead process " + p.name)
	}
	p.eng.After(0, p.dispatchFn)
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name of the process.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for d of virtual time. Negative durations
// are treated as zero (the process still yields, giving other
// same-instant events a chance to run).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	t := e.now.Add(d)
	// Inline advance: if nothing is pending at or before t, the
	// wake-up scheduled here would be the very next event popped, so
	// popping it is all the event loop would do before resuming this
	// process. The comparison is strict because an event already
	// pending at t has a smaller sequence number and must run first;
	// the horizon keeps RunUntil from being overshot. The wake-up's
	// sequence number is consumed all the same, so events are numbered
	// exactly as under a Step loop.
	if e.driving && t <= e.horizon && (len(e.pq) == 0 || e.pq[0].at > t) {
		e.seq++
		e.now = t
		return
	}
	e.At(t, p.dispatchFn)
	p.park()
}

// Yield gives up the processor for the current instant, allowing other
// events scheduled at the same virtual time to run first.
func (p *Proc) Yield() { p.Sleep(0) }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Signal is a broadcast wakeup point: processes Wait on it, and a later
// Broadcast wakes all current waiters. It is the simulation analogue of
// a condition variable with an external lock implied by the engine's
// single-threaded execution.
type Signal struct {
	eng     *Engine
	waiters []*signalWaiter
}

type signalWaiter struct {
	p        *Proc
	signaled bool
	woken    bool
}

// NewSignal returns a Signal bound to the engine.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait suspends the process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, &signalWaiter{p: p})
	p.park()
}

// WaitTimeout suspends the process until the next Broadcast or until d
// elapses, whichever comes first. It reports whether the wakeup was a
// Broadcast (true) rather than the timeout (false).
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool {
	w := &signalWaiter{p: p}
	s.waiters = append(s.waiters, w)
	s.eng.After(d, func() {
		if w.woken {
			return
		}
		w.woken = true
		s.remove(w)
		p.unpark()
	})
	p.park()
	return w.signaled
}

func (s *Signal) remove(target *signalWaiter) {
	for i, w := range s.waiters {
		if w == target {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Broadcast wakes every process currently waiting.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		if w.woken {
			continue
		}
		w.woken = true
		w.signaled = true
		w.p.unpark()
	}
}

// Waiters returns the number of processes currently blocked in Wait.
func (s *Signal) Waiters() int { return len(s.waiters) }
