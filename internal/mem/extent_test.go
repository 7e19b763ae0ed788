package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// refFrame is the reference model of one live frame: the whole page, a
// materialized flag, and the extent the store must keep — the lowest
// and highest non-zero byte ever written (lo == hi while none has been).
type refFrame struct {
	page         [PageSize]byte
	materialized bool
	lo, hi       int
	refs         int32
}

// TestExtentMatchesReference runs seeded random sequences of Alloc,
// Write, Read, Clone, IncRef, DecRef and Extent against a reference
// that keeps every frame as a full 4 KB page. The writes include
// all-zero data, zero overwrites inside an extent, writes at both page
// edges and 4 KB writes with zero edges (the graft path). After every
// operation the touched frame reads back as its reference page,
// Materialized and the frame counts agree, and Extent is exactly the
// span of non-zero bytes ever written, at its page offset.
func TestExtentMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		runExtentReference(t, seed, 300)
		if t.Failed() {
			return
		}
	}
}

func runExtentReference(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	st := NewStore(0)
	ref := map[Frame]*refFrame{}
	var live []Frame
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	alloc := func() Frame {
		f := st.MustAlloc()
		if ref[f] != nil {
			t.Fatalf("seed %d: live frame %d handed out again", seed, f)
		}
		ref[f] = &refFrame{refs: 1}
		live = append(live, f)
		return f
	}
	// data returns n bytes to write: random bytes with zero runs, all
	// zeros, or a non-zero window with zero edges.
	data := func(n int) []byte {
		d := make([]byte, n)
		switch rng.Intn(4) {
		case 0: // all zero
		case 1: // a non-zero window with zero edges
			i := rng.Intn(n)
			j := i + rng.Intn(n-i) + 1
			for k := i; k < j; k++ {
				d[k] = byte(rng.Intn(256))
			}
			d[i], d[j-1] = 0xA5, 0x5A
		default:
			for k := range d {
				if rng.Intn(3) > 0 {
					d[k] = byte(rng.Intn(256))
				}
			}
		}
		return d
	}
	check := func(step int, f Frame) {
		t.Helper()
		r := ref[f]
		if got := st.Materialized(f); got != r.materialized {
			fail(step, "frame %d materialized = %v, want %v", f, got, r.materialized)
		}
		var page [PageSize]byte
		st.Read(f, 0, page[:])
		if page != r.page {
			fail(step, "frame %d reads differently from its reference page", f)
		}
		off, b, ok := st.Extent(f)
		if ok != r.materialized {
			fail(step, "frame %d Extent ok = %v, want %v", f, ok, r.materialized)
		}
		if ok && (off != r.lo || len(b) != r.hi-r.lo) {
			fail(step, "frame %d extent [%d,%d), want [%d,%d)", f, off, off+len(b), r.lo, r.hi)
		}
		if ok && !bytes.Equal(b, r.page[r.lo:r.hi]) {
			fail(step, "frame %d extent bytes differ from its reference page", f)
		}
		var materialized int64
		for _, r := range ref {
			if r.materialized {
				materialized++
			}
		}
		if s := st.Stats(); s.FramesInUse != int64(len(ref)) || s.Materialized != materialized {
			fail(step, "stats %d frames, %d materialized; reference %d, %d",
				s.FramesInUse, s.Materialized, len(ref), materialized)
		}
	}

	for step := 0; step < ops; step++ {
		if len(live) == 0 {
			check(step, alloc())
			continue
		}
		idx := rng.Intn(len(live))
		f := live[idx]
		r := ref[f]
		switch op := rng.Intn(10); {
		case op < 4: // Write
			var off, n int
			switch rng.Intn(5) {
			case 0: // the first bytes of the page
				off, n = 0, 1+rng.Intn(128)
			case 1: // the last bytes of the page
				n = 1 + rng.Intn(128)
				off = PageSize - n
			case 2: // the whole page, as a graft writes it
				off, n = 0, PageSize
			case 3: // inside the current extent (zeros included)
				if r.hi > r.lo {
					off = r.lo + rng.Intn(r.hi-r.lo)
					n = 1 + rng.Intn(r.hi-off)
					break
				}
				fallthrough
			default:
				off = rng.Intn(PageSize)
				n = 1 + rng.Intn(min(PageSize-off, 300))
			}
			d := data(n)
			st.Write(f, off, d)
			copy(r.page[off:], d)
			r.materialized = true
			for k, c := range d {
				if c == 0 {
					continue
				}
				if r.hi == r.lo {
					r.lo, r.hi = off+k, off+k+1
				}
				r.lo, r.hi = min(r.lo, off+k), max(r.hi, off+k+1)
			}
			check(step, f)
		case op < 5: // Read a random range
			off := rng.Intn(PageSize)
			dst := make([]byte, rng.Intn(PageSize-off+1))
			for k := range dst {
				dst[k] = 0xEE // Read must overwrite every byte
			}
			st.Read(f, off, dst)
			if !bytes.Equal(dst, r.page[off:off+len(dst)]) {
				fail(step, "frame %d Read [%d,%d) differs from its reference", f, off, off+len(dst))
			}
		case op < 6: // Clone (the CoW path)
			g, err := st.Clone(f)
			if err != nil {
				fail(step, "clone: %v", err)
			}
			c := *r
			c.refs = 1
			ref[g] = &c
			live = append(live, g)
			check(step, g)
			check(step, f)
		case op < 7:
			st.IncRef(f)
			r.refs++
			check(step, f)
		case op < 9:
			st.DecRef(f)
			if r.refs--; r.refs == 0 {
				delete(ref, f)
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				check(step, f)
			}
		default:
			check(step, alloc())
		}
	}
	for f, r := range ref {
		for ; r.refs > 0; r.refs-- {
			st.DecRef(f)
		}
	}
	if s := st.Stats(); s.FramesInUse != 0 || s.Materialized != 0 {
		t.Fatalf("seed %d: %d frames, %d materialized left after freeing all", seed, s.FramesInUse, s.Materialized)
	}
}

// TestNonZeroSpan checks the word- and block-stepping edge trim against
// a byte loop, with the non-zero bytes on every alignment around the
// 8- and 64-byte steps.
func TestNonZeroSpan(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 130, PageSize} {
		b := make([]byte, n)
		if i, j := nonZeroSpan(b); i != j {
			t.Fatalf("all-zero %d bytes: span [%d,%d)", n, i, j)
		}
		for lo := 0; lo < n; lo += 1 + lo/7 {
			for hi := lo + 1; hi <= n; hi += 1 + (hi-lo)/5 {
				clear(b)
				b[lo], b[hi-1] = 1, 2
				if i, j := nonZeroSpan(b); i != lo || j != hi {
					t.Fatalf("%d bytes, non-zero at %d and %d: span [%d,%d), want [%d,%d)", n, lo, hi-1, i, j, lo, hi)
				}
			}
		}
	}
}

// TestExtentKeepsOnlyWrittenBytes pins the host cost the extent exists
// for: a cold function's source file, about 200 bytes in the middle of
// a page, keeps a buffer of that size, and its CoW copy another.
func TestExtentKeepsOnlyWrittenBytes(t *testing.T) {
	st := NewStore(0)
	f := st.MustAlloc()
	src := bytes.Repeat([]byte("x"), 200)
	st.Write(f, 2048, src)
	g, err := st.Clone(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range []Frame{f, g} {
		off, b, ok := st.Extent(fr)
		if !ok || off != 2048 || !bytes.Equal(b, src) {
			t.Fatalf("frame %d extent at %d, %d bytes, ok %v; want 200 bytes at 2048", fr, off, len(b), ok)
		}
		if cap(b) > 256 {
			t.Errorf("frame %d keeps a %d-byte buffer for a 200-byte extent", fr, cap(b))
		}
	}
}
