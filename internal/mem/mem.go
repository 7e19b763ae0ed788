// Package mem simulates the physical memory of the SEUSS compute node.
//
// The paper's evaluation runs inside an 88 GB QEMU-KVM virtual machine;
// snapshot sizes, per-invocation footprints, and cache-density limits are
// all statements about how many 4 KB physical frames are in use and how
// they are shared. This package provides that substrate: a frame
// allocator with reference counting (frames are shared read-only between
// snapshots and unikernel contexts), byte-level accounting against a
// configurable budget, and *lazy* frame contents so density experiments
// with 50 000+ cached contexts fit in laptop RAM — a frame's 4 KB payload
// is only materialized when something writes actual bytes into it.
//
// The allocator is free-list backed: freed frame descriptors and freed
// 4 KB payload buffers are recycled instead of handed back to the Go
// allocator, so the deploy→fault→capture hot path runs allocation-free
// in steady state (fresh descriptors come from slabs, amortizing the
// cold-start cost too). A cached function keeps about a thousand
// descriptors reachable, so the descriptor is kept to 32 bytes: the
// payload is a pointer to a page-sized array, not a slice, and the free
// payload list holds the same 8-byte pointers. Recycling trades away
// the garbage collector's use-after-free protection; build with
// `-tags seusspoison` to get it back — freed payloads are filled with a
// poison pattern and freed descriptors are quarantined so stale handles
// keep panicking.
package mem

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// PageSize is the size of a physical frame in bytes, matching x86-64.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// frameSlabSize is how many frame descriptors are carved from one slab
// allocation when the free list is empty. 128 descriptors = 4 KB —
// small enough to stay cheap, large enough that allocs/op on a
// descriptor-churning benchmark truncates to zero.
const frameSlabSize = 128

// maxFreeBufs bounds the recycled-payload list so a transient burst of
// materialized pages (a density spike) does not pin its high-water mark
// in buffers forever. 16 384 buffers = 64 MB per store.
const maxFreeBufs = 16384

// ErrOutOfMemory is returned by Alloc when the store's byte budget is
// exhausted. The SEUSS OOM policy (§6 Memory Management) reacts to this
// by reclaiming idle UCs.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// FrameID identifies a physical frame within a Store.
type FrameID uint64

// Frame is a 4 KB physical frame. Frames are reference counted: page
// tables, snapshots, and UCs that map a frame hold a reference, and the
// frame returns to the allocator when the last reference drops.
//
// The reference count is atomic so read-side paths (stats, the dedup
// scanner, cross-shard observers) may call Refs concurrently with a
// shard mutating it; all *structural* mutation (Alloc/DecRef/Write)
// still belongs to the store-owning goroutine.
//
// Three words and the count: 32 bytes (TestFrameDescriptorSize).
type Frame struct {
	id   FrameID
	data *[PageSize]byte // nil until materialized; nil reads as all zeros
	st   *Store
	refs atomic.Int32
}

// ID returns the frame's identifier.
func (f *Frame) ID() FrameID { return f.id }

// Refs returns the current reference count.
func (f *Frame) Refs() int32 { return f.refs.Load() }

// Materialized reports whether the frame's 4 KB payload is backed by
// real bytes (true) or is an implicit zero page (false).
func (f *Frame) Materialized() bool { return f.data != nil }

// Bytes returns the frame's live payload without copying, or nil for an
// unmaterialized (implicit zero) frame. The slice aliases the frame's
// backing buffer: it is valid only while the caller holds a reference,
// and callers must treat it as read-only — it exists so the snapshot
// codec can stream page contents straight from frames to the wire.
func (f *Frame) Bytes() []byte {
	if f.data == nil {
		return nil
	}
	return f.data[:]
}

// Write copies data into the frame at off, materializing the payload on
// first write. It panics if the write would run past the frame: callers
// are simulating hardware and must respect page bounds.
func (f *Frame) Write(off int, data []byte) {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("mem: write [%d,%d) outside frame", off, off+len(data)))
	}
	if len(data) == 0 {
		return
	}
	if f.data == nil {
		f.data = f.st.getBuf(true)
		f.st.materialized++
		if f.st.scanner != nil {
			f.st.scanner.Track(f)
		}
	}
	copy(f.data[off:], data)
}

// Read copies the frame's bytes at off into dst. Unmaterialized frames
// read as zeros.
func (f *Frame) Read(off int, dst []byte) {
	if off < 0 || off+len(dst) > PageSize {
		panic(fmt.Sprintf("mem: read [%d,%d) outside frame", off, off+len(dst)))
	}
	if f.data == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, f.data[off:])
}

// Store is a physical memory allocator with a byte budget. Stores are
// shard-local (shared-nothing), so the free lists need no locking.
type Store struct {
	budget       int64 // total bytes; 0 means unlimited
	nextID       FrameID
	inUse        int64 // frames currently allocated
	highWater    int64
	materialized int64 // frames with real payloads
	allocs       int64 // lifetime allocation count
	frees        int64
	frameReuses  int64             // allocs served from the descriptor free list
	bufReuses    int64             // materializations served from the payload free list
	free         []*Frame          // recycled descriptors (refs==0, data==nil)
	bufs         []*[PageSize]byte // recycled 4 KB payloads
	slab         []Frame           // current descriptor slab
	slabN        int               // descriptors handed out of slab
	scanner      *Scanner          // optional KSM-style content scanner
}

// AttachScanner registers a deduplication scanner: every frame that
// materializes content is tracked, and frees untrack. Used by the
// §5 KSM-contrast ablation.
func (s *Store) AttachScanner(sc *Scanner) { s.scanner = sc }

// NewStore returns a store with the given byte budget. A budget of 0
// means unlimited (useful for unit tests); the paper's compute node uses
// 88 GB.
func NewStore(budget int64) *Store {
	return &Store{budget: budget}
}

// Budget returns the configured byte budget (0 = unlimited).
func (s *Store) Budget() int64 { return s.budget }

// getBuf returns a 4 KB payload buffer, recycled when possible. Recycled
// buffers carry stale bytes (or poison, under the seusspoison tag), so
// callers that expose the buffer as a fresh zero page pass zero=true;
// the Clone path overwrites the full page and skips the clear.
func (s *Store) getBuf(zero bool) *[PageSize]byte {
	if n := len(s.bufs); n > 0 {
		b := s.bufs[n-1]
		s.bufs[n-1] = nil
		s.bufs = s.bufs[:n-1]
		s.bufReuses++
		if zero {
			clear(b[:])
		}
		return b
	}
	return new([PageSize]byte)
}

// putBuf recycles a payload buffer (poisoning it first under the
// seusspoison build tag).
func (s *Store) putBuf(b *[PageSize]byte) {
	poisonBuf(b[:])
	if len(s.bufs) < maxFreeBufs {
		s.bufs = append(s.bufs, b)
	}
}

// Alloc returns a fresh frame with reference count 1, or ErrOutOfMemory
// if the budget would be exceeded.
func (s *Store) Alloc() (*Frame, error) {
	if s.budget > 0 && (s.inUse+1)*PageSize > s.budget {
		return nil, ErrOutOfMemory
	}
	s.nextID++
	s.inUse++
	s.allocs++
	if s.inUse > s.highWater {
		s.highWater = s.inUse
	}
	var f *Frame
	if n := len(s.free); n > 0 && framePoolEnabled {
		f = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.frameReuses++
	} else {
		if s.slabN == len(s.slab) {
			s.slab = make([]Frame, frameSlabSize)
			s.slabN = 0
		}
		f = &s.slab[s.slabN]
		s.slabN++
	}
	f.id = s.nextID
	f.st = s
	f.refs.Store(1)
	return f, nil
}

// MustAlloc is Alloc for contexts where the budget is known to hold
// (tests, bootstrapping); it panics on exhaustion.
func (s *Store) MustAlloc() *Frame {
	f, err := s.Alloc()
	if err != nil {
		panic(err)
	}
	return f
}

// IncRef adds a reference to the frame (a new mapping or snapshot
// capture of it).
func (s *Store) IncRef(f *Frame) {
	if f.refs.Load() <= 0 {
		panic("mem: IncRef on freed frame")
	}
	f.refs.Add(1)
}

// DecRef drops a reference; when the count reaches zero the frame's
// descriptor and payload buffer are returned to the store's free lists
// (under the seusspoison tag the descriptor is quarantined instead, so
// a stale handle still panics on the next IncRef/DecRef).
func (s *Store) DecRef(f *Frame) {
	if f.refs.Load() <= 0 {
		panic("mem: DecRef on freed frame")
	}
	if f.refs.Add(-1) != 0 {
		return
	}
	if f.data != nil {
		s.putBuf(f.data)
		f.data = nil
		s.materialized--
		if s.scanner != nil {
			s.scanner.Untrack(f.id)
		}
	}
	s.inUse--
	s.frees++
	f.st = nil
	if framePoolEnabled {
		s.free = append(s.free, f)
	}
}

// Clone allocates a new frame containing a copy of src's bytes — the
// copy-on-write resolution path. Unmaterialized sources clone to
// unmaterialized (zero) frames at no real-memory cost.
func (s *Store) Clone(src *Frame) (*Frame, error) {
	f, err := s.Alloc()
	if err != nil {
		return nil, err
	}
	if src.data != nil {
		f.data = s.getBuf(false)
		*f.data = *src.data
		s.materialized++
		if s.scanner != nil {
			s.scanner.Track(f)
		}
	}
	return f, nil
}

// Stats is a point-in-time snapshot of the store's accounting.
type Stats struct {
	FramesInUse  int64
	BytesInUse   int64
	HighWater    int64 // frames
	Materialized int64 // frames with real payloads
	Allocs       int64
	Frees        int64
	FrameReuses  int64 // allocs served by recycled descriptors
	BufReuses    int64 // materializations served by recycled buffers
	Budget       int64
}

// Stats returns current accounting.
func (s *Store) Stats() Stats {
	return Stats{
		FramesInUse:  s.inUse,
		BytesInUse:   s.inUse * PageSize,
		HighWater:    s.highWater,
		Materialized: s.materialized,
		Allocs:       s.allocs,
		Frees:        s.frees,
		FrameReuses:  s.frameReuses,
		BufReuses:    s.bufReuses,
		Budget:       s.budget,
	}
}

// Available returns how many more frames fit in the budget, or -1 for
// unlimited stores.
func (s *Store) Available() int64 {
	if s.budget == 0 {
		return -1
	}
	return s.budget/PageSize - s.inUse
}
