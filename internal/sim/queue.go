package sim

// Queue is an unbounded FIFO connecting simulated processes: the work
// queue the benchmark's worker threads pull from and the burst
// generator's arrival stream. Get blocks (in virtual time) until an
// item is available.
type Queue struct {
	eng     *Engine
	items   []interface{}
	waiters []*Proc
	closed  bool
}

// NewQueue returns an empty queue bound to the engine.
func NewQueue(e *Engine) *Queue { return &Queue{eng: e} }

// Put appends an item and wakes one waiter, if any. Put never blocks.
// Putting to a closed queue panics: it indicates a protocol bug.
func (q *Queue) Put(v interface{}) {
	if q.closed {
		panic("sim: Put on closed queue")
	}
	q.items = append(q.items, v)
	q.wakeOne()
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

func (q *Queue) wakeOne() {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	w.unpark()
}

// Get removes and returns the head item, blocking the process until one
// is available. The second result is false if the queue was closed and
// drained.
func (q *Queue) Get(p *Proc) (interface{}, bool) {
	for len(q.items) == 0 {
		if q.closed {
			return nil, false
		}
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

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

// Close marks the queue closed and wakes all waiters, which will
// observe ok=false once the queue drains.
func (q *Queue) Close() {
	q.closed = true
	ws := q.waiters
	q.waiters = nil
	for _, w := range ws {
		w.unpark()
	}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }
