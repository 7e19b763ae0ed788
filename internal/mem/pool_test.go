package mem

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestFrameDescriptorSize pins what a frame costs the host: a 4-byte
// number, plus an 8-byte table entry with no pointers in it, so the
// thousand or so frames a cached function keeps are 8 KB the garbage
// collector never scans.
func TestFrameDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(Frame(0)); got != 4 {
		t.Errorf("sizeof(Frame) = %d, want 4", got)
	}
	if got := unsafe.Sizeof(frameState{}); got != 8 {
		t.Errorf("sizeof(frameState) = %d, want 8", got)
	}
	if hasPointers(reflect.TypeOf(chunk{})) {
		t.Error("a frame-table chunk holds pointers: the collector would scan it")
	}
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestFramePoolRecycles checks that freed numbers and payload buffers
// are reused in the default build, and that a recycled number comes back
// with one reference and a zeroed view.
func TestFramePoolRecycles(t *testing.T) {
	if !recycleNumbers {
		t.Skip("frame numbers are never reused in the seusspoison build")
	}
	st := NewStore(0)
	f := st.MustAlloc()
	st.Write(f, 100, []byte{0xAA, 0xBB})
	st.DecRef(f)

	g := st.MustAlloc()
	if g != f {
		t.Fatalf("number not recycled: got %d want %d", g, f)
	}
	if st.Refs(g) != 1 {
		t.Fatalf("recycled frame refs = %d, want 1", st.Refs(g))
	}
	if st.Materialized(g) {
		t.Fatal("recycled frame came back materialized")
	}
	// The recycled buffer held 0xAA/0xBB; a fresh write must see zeros
	// everywhere it did not touch.
	st.Write(g, 0, []byte{1})
	buf := make([]byte, PageSize)
	st.Read(g, 0, buf)
	if buf[0] != 1 {
		t.Fatalf("written byte lost: %x", buf[0])
	}
	for i := 1; i < PageSize; i++ {
		if buf[i] != 0 {
			t.Fatalf("recycled buffer leaked stale byte %#x at %d", buf[i], i)
		}
	}
	s := st.Stats()
	if s.FrameReuses != 1 {
		t.Fatalf("FrameReuses = %d, want 1", s.FrameReuses)
	}
	if s.BufReuses != 1 {
		t.Fatalf("BufReuses = %d, want 1", s.BufReuses)
	}
}

// TestFrameNumbersRecycledLIFO: the last number freed is the first one
// handed out again, and once the free lists have grown, a cycle of
// allocs, writes and frees allocates nothing on the Go heap.
func TestFrameNumbersRecycledLIFO(t *testing.T) {
	if !recycleNumbers {
		t.Skip("frame numbers are never reused in the seusspoison build")
	}
	st := NewStore(0)
	frames := make([]Frame, 3*chunkFrames/2) // spans a chunk boundary
	cycle := func() {
		for i := range frames {
			frames[i] = st.MustAlloc()
			st.Write(frames[i], 0, []byte{byte(i)})
		}
		for _, f := range frames {
			st.DecRef(f)
		}
	}
	cycle()
	freed := slices.Clone(frames)
	for i := len(freed) - 1; i >= 0; i-- {
		if f := st.MustAlloc(); f != freed[i] {
			t.Fatalf("alloc %d got number %d, want %d (last freed, first reused)", len(freed)-1-i, f, freed[i])
		}
	}
	for _, f := range freed {
		st.DecRef(f)
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("steady-state alloc/write/free cycle: %.1f Go allocations, want 0", allocs)
	}
	if s := st.Stats(); s.FramesInUse != 0 || s.Materialized != 0 {
		t.Errorf("after the cycles: %d frames in use, %d materialized", s.FramesInUse, s.Materialized)
	}
}

// TestFreedBufferNeverAliasesLiveMapping allocates a frame, writes to
// it, frees it, then materializes a batch of new frames and checks that
// mutating the new frames cannot be observed through the stale view —
// i.e. a recycled buffer is handed to at most one live frame, and the
// freed frame itself reads as zeros/poison, never as another mapping's
// live bytes.
func TestFreedBufferNeverAliasesLiveMapping(t *testing.T) {
	st := NewStore(0)
	f := st.MustAlloc()
	st.Write(f, 0, []byte{0x11})
	_, stale, _ := st.Extent(f) // use-after-free view kept on purpose
	st.DecRef(f)

	// Materialize several live frames; exactly one may own the recycled
	// buffer.
	live := make([]Frame, 8)
	owners := 0
	for i := range live {
		live[i] = st.MustAlloc()
		st.Write(live[i], 0, []byte{byte(0x80 + i)})
		if _, b, _ := st.Extent(live[i]); &b[0] == &stale[0] {
			owners++
		}
	}
	if owners > 1 {
		t.Fatalf("recycled buffer aliased by %d live frames", owners)
	}
	// Every live frame must read back its own byte regardless of what the
	// others wrote.
	for i := range live {
		var b [1]byte
		st.Read(live[i], 0, b[:])
		if b[0] != byte(0x80+i) {
			t.Fatalf("frame %d corrupted: got %#x", i, b[0])
		}
	}
}

// TestCloneFromRecycledBuffer exercises the Clone path (no zeroing —
// full-page copy) against a dirty recycled buffer.
func TestCloneFromRecycledBuffer(t *testing.T) {
	st := NewStore(0)
	junk := st.MustAlloc()
	st.Write(junk, 0, make([]byte, PageSize)) // materialize
	st.Write(junk, 2000, []byte{0xFE, 0xFE})
	st.DecRef(junk)

	src := st.MustAlloc()
	st.Write(src, 0, []byte{1, 2, 3})
	dst, err := st.Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	want[0], want[1], want[2] = 1, 2, 3
	got := make([]byte, PageSize)
	st.Read(dst, 0, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clone differs at %d: got %#x want %#x", i, got[i], want[i])
		}
	}
}

// TestPoolRespectsBudget checks the byte budget is enforced across
// recycle cycles (inUse accounting, not free-list length, is what
// gates).
func TestPoolRespectsBudget(t *testing.T) {
	st := NewStore(2 * PageSize)
	a := st.MustAlloc()
	b := st.MustAlloc()
	if _, err := st.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	st.DecRef(a)
	c := st.MustAlloc() // frees made room
	st.DecRef(b)
	st.DecRef(c)
	if got := st.Stats().FramesInUse; got != 0 {
		t.Fatalf("FramesInUse = %d, want 0", got)
	}
}

// TestSlabDescriptorsIndependent makes sure frames on either side of a
// frame-table chunk boundary do not share state.
func TestSlabDescriptorsIndependent(t *testing.T) {
	st := NewStore(0)
	frames := make([]Frame, chunkFrames*2+3)
	for i := range frames {
		frames[i] = st.MustAlloc()
		st.Write(frames[i], 0, []byte{byte(i)})
	}
	for i := range frames {
		var b [1]byte
		st.Read(frames[i], 0, b[:])
		if b[0] != byte(i) {
			t.Fatalf("frame %d corrupted: got %#x", i, b[0])
		}
		st.DecRef(frames[i])
	}
}

// BenchmarkFrameAllocFree is the allocator's steady-state hot loop: it
// must be allocation-free once the pool is primed.
func BenchmarkFrameAllocFree(b *testing.B) {
	st := NewStore(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := st.MustAlloc()
		st.Write(f, 0, []byte{1})
		st.DecRef(f)
	}
}

// BenchmarkFrameClone measures the CoW resolution path with recycling.
func BenchmarkFrameClone(b *testing.B) {
	st := NewStore(0)
	src := st.MustAlloc()
	st.Write(src, 0, make([]byte, PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := st.Clone(src)
		if err != nil {
			b.Fatal(err)
		}
		st.DecRef(f)
	}
}
