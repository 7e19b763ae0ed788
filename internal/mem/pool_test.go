package mem

import (
	"testing"
	"unsafe"
)

// TestFrameDescriptorSize pins the descriptor at 32 bytes: a cached
// node.js function keeps about a thousand of them reachable, so a word
// added here is 8 KB more host memory per function.
func TestFrameDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got > 32 {
		t.Errorf("sizeof(Frame) = %d, want <= 32", got)
	}
}

// TestFramePoolRecycles checks that freed descriptors and payload
// buffers are reused in the default build, and that recycled frames come
// back with fresh identity and a zeroed view.
func TestFramePoolRecycles(t *testing.T) {
	if !framePoolEnabled {
		t.Skip("descriptor pool disabled (seusspoison build)")
	}
	st := NewStore(0)
	f := st.MustAlloc()
	f.Write(100, []byte{0xAA, 0xBB})
	id := f.ID()
	st.DecRef(f)

	g := st.MustAlloc()
	if g != f {
		t.Fatalf("descriptor not recycled: got %p want %p", g, f)
	}
	if g.ID() == id {
		t.Fatalf("recycled frame kept stale ID %d", id)
	}
	if g.Refs() != 1 {
		t.Fatalf("recycled frame refs = %d, want 1", g.Refs())
	}
	if g.Materialized() {
		t.Fatal("recycled frame came back materialized")
	}
	// The recycled buffer held 0xAA/0xBB; a fresh write must see zeros
	// everywhere it did not touch.
	g.Write(0, []byte{1})
	buf := make([]byte, PageSize)
	g.Read(0, buf)
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

// TestFreedBufferNeverAliasesLiveMapping allocates a frame, writes to
// it, frees it, then materializes a batch of new frames and checks that
// mutating the new frames cannot be observed through the stale view —
// i.e. a recycled buffer is handed to at most one live frame, and the
// freed frame itself reads as zeros/poison, never as another mapping's
// live bytes.
func TestFreedBufferNeverAliasesLiveMapping(t *testing.T) {
	st := NewStore(0)
	f := st.MustAlloc()
	f.Write(0, []byte{0x11})
	stale := f.Bytes() // use-after-free view kept on purpose
	st.DecRef(f)

	// Materialize several live frames; exactly one may own the recycled
	// buffer.
	live := make([]*Frame, 8)
	owners := 0
	for i := range live {
		live[i] = st.MustAlloc()
		live[i].Write(0, []byte{byte(0x80 + i)})
		if &live[i].Bytes()[0] == &stale[0] {
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
		live[i].Read(0, b[:])
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
	junk.Write(0, make([]byte, PageSize)) // materialize
	junk.Write(2000, []byte{0xFE, 0xFE})
	st.DecRef(junk)

	src := st.MustAlloc()
	src.Write(0, []byte{1, 2, 3})
	dst, err := st.Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	want[0], want[1], want[2] = 1, 2, 3
	got := make([]byte, PageSize)
	dst.Read(0, got)
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

// TestSlabDescriptorsIndependent makes sure slab-carved descriptors do
// not share state.
func TestSlabDescriptorsIndependent(t *testing.T) {
	st := NewStore(0)
	frames := make([]*Frame, frameSlabSize*2+3)
	for i := range frames {
		frames[i] = st.MustAlloc()
		frames[i].Write(0, []byte{byte(i)})
	}
	for i := range frames {
		var b [1]byte
		frames[i].Read(0, b[:])
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
		f.Write(0, []byte{1})
		st.DecRef(f)
	}
}

// BenchmarkFrameClone measures the CoW resolution path with recycling.
func BenchmarkFrameClone(b *testing.B) {
	st := NewStore(0)
	src := st.MustAlloc()
	src.Write(0, make([]byte, PageSize))
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
