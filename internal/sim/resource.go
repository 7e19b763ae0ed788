package sim

// Resource is a counting semaphore in virtual time. It models the
// compute node's CPU cores (capacity 16 in the paper's testbed), Docker
// daemon concurrency, and similar contended capacities. Acquire blocks
// the calling process until a unit is free; waiters are served FIFO,
// which keeps the simulation deterministic.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []*Proc
	// MaxInUse tracks the high-water mark, useful for utilization
	// reporting in the experiment harnesses.
	MaxInUse int
}

// NewResource returns a resource with the given capacity. Capacity must
// be positive.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Acquire blocks the process until a unit is available, then takes it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.waiters = append(r.waiters, p)
		p.park()
	}
	r.inUse++
	if r.inUse > r.MaxInUse {
		r.MaxInUse = r.inUse
	}
}

// Release returns a unit and wakes the first waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	r.inUse--
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		w.unpark()
	}
}

// Use acquires a unit, sleeps for d (the service time), and releases.
// It is the common pattern for "run on a CPU core for d".
func (r *Resource) Use(p *Proc, d duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}
