package sim

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"time"
)

// LiveProcs returns the number of processes that have been spawned and
// not yet finished — blocked servers and leaked workers show up here
// after Run drains.
func (e *Engine) LiveProcs() int { return e.procs }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.pq) }

// RunUntil executes events with instants <= t, then advances the clock
// to exactly t.
func (e *Engine) RunUntil(t Time) {
	defer e.endDrive(e.beginDrive(t))
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// Seconds returns the instant as seconds from simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// TryGet removes and returns the head item without blocking. ok is
// false if the queue is empty.
func (q *Queue) TryGet() (v interface{}, ok bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}

// PutFront prepends an item (used for requeueing work that must retain
// priority) and wakes one waiter.
func (q *Queue) PutFront(v interface{}) {
	if q.closed {
		panic("sim: PutFront on closed queue")
	}
	q.items = append([]interface{}{v}, q.items...)
	q.wakeOne()
}

// QueueLen returns the number of processes blocked in Acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Waiters returns the number of processes currently blocked in Wait.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Yield gives up the processor for the current instant, allowing other
// events scheduled at the same virtual time to run first.
func (p *Proc) Yield() { p.Sleep(0) }

// TryAcquire takes a unit if one is free, without blocking.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.inUse++
	if r.inUse > r.MaxInUse {
		r.MaxInUse = r.inUse
	}
	return true
}

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }
