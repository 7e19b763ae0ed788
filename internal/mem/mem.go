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
// A frame is a number, not an object. The store keeps each number's
// state — a reference count and a payload slot, 8 bytes — in chunked
// tables that hold no pointers, so the garbage collector never scans
// them, and a cached function's thousand or so frames cost it 8 KB of
// host memory. Payload buffers sit in a side table indexed by the slot,
// which only materialized pages occupy. Chunks are never copied when the
// table grows, so a pointer into one stays valid.
//
// Freed numbers and freed payload slots are reused last-in first-out, so
// the deploy→fault→capture hot path runs allocation-free in steady
// state. Reuse trades away use-after-free detection: a stale number
// names whichever frame holds it next. Build with `-tags seusspoison` to
// get it back — freed numbers are never handed out again, so a stale
// one keeps a zero reference count and panics on IncRef, DecRef and
// Write, and freed payloads are filled with a poison pattern.
//
// A store and its frames belong to one goroutine (the shard that owns
// them); nothing here is safe for concurrent use.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the size of a physical frame in bytes, matching x86-64.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// chunkShift sizes one chunk of the frame table: 2 048 entries of 8
// bytes, 16 KB, so a unit-test store stays small and a node's table of
// millions of frames is a few thousand chunks.
const (
	chunkShift  = 11
	chunkFrames = 1 << chunkShift
)

// maxIdleBufs bounds the payload buffers kept on free slots, so a
// transient burst of materialized pages (a density spike) does not pin
// its high-water mark in buffers forever. 16 384 buffers = 64 MB per
// store.
const maxIdleBufs = 16384

// ErrOutOfMemory is returned by Alloc when the store's byte budget is
// exhausted. The SEUSS OOM policy (§6 Memory Management) reacts to this
// by reclaiming idle UCs.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// Frame names a 4 KB physical frame of one Store; zero is no frame.
// Frames are reference counted: page tables, snapshots, and UCs that map
// a frame hold a reference, and the number returns to the store when the
// last reference drops.
type Frame uint32

// frameState is one frame's entry in the store's table.
type frameState struct {
	refs int32  // 0 while the number is free
	page uint32 // slot in Store.pages; 0 for an implicit zero page
}

// chunk is a fixed block of the frame table. It holds no pointers.
type chunk [chunkFrames]frameState

// Store is a physical memory allocator with a byte budget. Stores are
// shard-local (shared-nothing), so the tables need no locking.
type Store struct {
	budget       int64 // total bytes; 0 means unlimited
	inUse        int64 // frames currently allocated
	highWater    int64
	materialized int64 // frames with real payloads
	allocs       int64 // lifetime allocation count
	frees        int64
	frameReuses  int64 // allocs served by a recycled number
	bufReuses    int64 // materializations served by a recycled buffer

	chunks []*chunk // frame table; number f lives at chunks[f>>chunkShift][f%chunkFrames]
	last   Frame    // highest number handed out
	free   []Frame  // recycled numbers, LIFO

	pages     []*[PageSize]byte // payload side table; pages[0] is never used
	freePages []uint32          // free payload slots, LIFO
	idleBufs  int               // free slots still holding a buffer
}

// NewStore returns a store with the given byte budget. A budget of 0
// means unlimited (useful for unit tests); the paper's compute node uses
// 88 GB.
func NewStore(budget int64) *Store {
	return &Store{
		budget: budget,
		chunks: []*chunk{new(chunk)}, // holds number 0, which is never handed out
		pages:  make([]*[PageSize]byte, 1),
	}
}

// Budget returns the configured byte budget (0 = unlimited).
func (s *Store) Budget() int64 { return s.budget }

// state returns f's table entry. Chunks never move, so the pointer stays
// valid while the table grows.
func (s *Store) state(f Frame) *frameState {
	return &s.chunks[f>>chunkShift][f&(chunkFrames-1)]
}

// live returns f's entry, panicking if f holds no reference: a freed or
// never-allocated number used as a frame is a simulator bug.
func (s *Store) live(f Frame, op string) *frameState {
	st := s.state(f)
	if st.refs <= 0 {
		panic(fmt.Sprintf("mem: %s freed frame %d", op, f))
	}
	return st
}

// Refs returns f's reference count (0 once it is freed).
func (s *Store) Refs(f Frame) int32 { return s.state(f).refs }

// Materialized reports whether f's 4 KB payload is backed by real bytes
// (true) or is an implicit zero page (false).
func (s *Store) Materialized(f Frame) bool { return s.state(f).page != 0 }

// Bytes returns f's live payload without copying, or nil for an
// unmaterialized (implicit zero) frame. The slice aliases the frame's
// backing buffer: it is valid only while the caller holds a reference,
// and callers must treat it as read-only — it exists so the snapshot
// codec can stream page contents straight from frames to the wire.
func (s *Store) Bytes(f Frame) []byte {
	if p := s.state(f).page; p != 0 {
		return s.pages[p][:]
	}
	return nil
}

// Write copies data into f at off, materializing the payload on first
// write. It panics if the write would run past the frame — callers are
// simulating hardware and must respect page bounds — or if f is freed.
func (s *Store) Write(f Frame, off int, data []byte) {
	if off < 0 || off+len(data) > PageSize {
		panic(fmt.Sprintf("mem: write [%d,%d) outside frame", off, off+len(data)))
	}
	st := s.live(f, "write to")
	if len(data) == 0 {
		return
	}
	if st.page == 0 {
		st.page = s.getPage(true)
		s.materialized++
	}
	copy(s.pages[st.page][off:], data)
}

// Read copies f's bytes at off into dst. Unmaterialized frames read as
// zeros.
func (s *Store) Read(f Frame, off int, dst []byte) {
	if off < 0 || off+len(dst) > PageSize {
		panic(fmt.Sprintf("mem: read [%d,%d) outside frame", off, off+len(dst)))
	}
	if p := s.state(f).page; p != 0 {
		copy(dst, s.pages[p][off:])
		return
	}
	clear(dst)
}

// getPage returns a payload slot with a buffer, recycled when possible.
// Recycled buffers carry stale bytes (or poison, under the seusspoison
// tag), so callers that expose the buffer as a fresh zero page pass
// zero=true; the Clone path overwrites the full page and skips the clear.
func (s *Store) getPage(zero bool) uint32 {
	n := len(s.freePages)
	if n == 0 {
		s.pages = append(s.pages, new([PageSize]byte))
		return uint32(len(s.pages) - 1)
	}
	p := s.freePages[n-1]
	s.freePages = s.freePages[:n-1]
	if b := s.pages[p]; b != nil {
		s.idleBufs--
		s.bufReuses++
		if zero {
			clear(b[:])
		}
	} else {
		s.pages[p] = new([PageSize]byte)
	}
	return p
}

// putPage frees payload slot p (poisoning its buffer first under the
// seusspoison build tag). Past maxIdleBufs idle buffers the slot gives
// its buffer back to the garbage collector.
func (s *Store) putPage(p uint32) {
	poisonBuf(s.pages[p][:])
	if s.idleBufs < maxIdleBufs {
		s.idleBufs++
	} else {
		s.pages[p] = nil
	}
	s.freePages = append(s.freePages, p)
}

// Alloc returns a fresh frame with reference count 1, or ErrOutOfMemory
// if the budget would be exceeded.
func (s *Store) Alloc() (Frame, error) {
	if s.budget > 0 && (s.inUse+1)*PageSize > s.budget {
		return 0, ErrOutOfMemory
	}
	s.inUse++
	s.allocs++
	if s.inUse > s.highWater {
		s.highWater = s.inUse
	}
	var f Frame
	if n := len(s.free); n > 0 {
		f = s.free[n-1]
		s.free = s.free[:n-1]
		s.frameReuses++
	} else {
		if s.last == 1<<32-1 {
			panic("mem: frame numbers exhausted")
		}
		s.last++
		f = s.last
		if int(f>>chunkShift) == len(s.chunks) {
			s.chunks = append(s.chunks, new(chunk))
		}
	}
	s.state(f).refs = 1
	return f, nil
}

// IncRef adds a reference to the frame (a new mapping or snapshot
// capture of it).
func (s *Store) IncRef(f Frame) { s.live(f, "IncRef on").refs++ }

// DecRef drops a reference; when the count reaches zero the frame's
// number and payload slot are returned to the store's free lists (under
// the seusspoison tag the number is never reused, so a stale copy of it
// still panics on the next IncRef/DecRef/Write).
func (s *Store) DecRef(f Frame) {
	st := s.live(f, "DecRef on")
	if st.refs--; st.refs != 0 {
		return
	}
	if st.page != 0 {
		s.putPage(st.page)
		st.page = 0
		s.materialized--
	}
	s.inUse--
	s.frees++
	if recycleNumbers {
		s.free = append(s.free, f)
	}
}

// Clone allocates a new frame containing a copy of src's bytes — the
// copy-on-write resolution path. Unmaterialized sources clone to
// unmaterialized (zero) frames at no real-memory cost.
func (s *Store) Clone(src Frame) (Frame, error) {
	f, err := s.Alloc()
	if err != nil {
		return 0, err
	}
	if from := s.state(src).page; from != 0 {
		p := s.getPage(false)
		*s.pages[p] = *s.pages[from]
		s.state(f).page = p
		s.materialized++
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
	FrameReuses  int64 // allocs served by recycled frame numbers
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
