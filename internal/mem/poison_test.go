//go:build seusspoison

package mem

import "testing"

// TestPoisonOnFree verifies the seusspoison contract: a use-after-free
// view of a freed frame's payload reads the poison pattern (not zeros,
// not another mapping's bytes), a freed number is never handed out
// again, and every mutating use of the stale number panics instead of
// silently touching whichever frame holds it next.
func TestPoisonOnFree(t *testing.T) {
	st := NewStore(0)
	f := st.MustAlloc()
	st.Write(f, 0, []byte{0x42, 0x43})
	stale := st.Bytes(f)
	st.DecRef(f)

	for i, b := range stale {
		if b != PoisonByte {
			t.Fatalf("freed payload byte %d = %#x, want poison %#x", i, b, PoisonByte)
		}
	}

	// The number is quarantined: no later alloc hands f back, though it
	// sat on top of what would be a LIFO free list.
	for i := 0; i < 2*chunkFrames; i++ {
		if g := st.MustAlloc(); g == f {
			t.Fatalf("alloc %d reused freed number %d despite seusspoison", i, f)
		}
	}

	for name, use := range map[string]func(){
		"IncRef": func() { st.IncRef(f) },
		"DecRef": func() { st.DecRef(f) },
		"Write":  func() { st.Write(f, 0, []byte{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a freed number did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestPoisonedBufferZeroedOnReuse checks that even though payload
// buffers ARE recycled under seusspoison, a demand-zero materialization
// never exposes the poison.
func TestPoisonedBufferZeroedOnReuse(t *testing.T) {
	st := NewStore(0)
	f := st.MustAlloc()
	st.Write(f, 0, []byte{9})
	st.DecRef(f)

	g := st.MustAlloc()
	st.Write(g, 100, []byte{7}) // materializes from the (poisoned) recycled buffer
	if got := st.Stats().BufReuses; got != 1 {
		t.Fatalf("BufReuses = %d, want 1: payload buffers are still recycled", got)
	}
	buf := make([]byte, PageSize)
	st.Read(g, 0, buf)
	for i, b := range buf {
		want := byte(0)
		if i == 100 {
			want = 7
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x (poison leaked)", i, b, want)
		}
	}
}
