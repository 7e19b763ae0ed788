package mem

import "testing"

func TestScannerFindsDuplicates(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)
	mk := func(content byte) Frame {
		f := st.MustAlloc()
		st.Write(f, 0, []byte{content, content, content})
		sc.Track(f)
		return f
	}
	mk(1)
	mk(1) // duplicate of the first
	mk(2)
	zero := st.MustAlloc() // unmaterialized
	sc.Track(zero)

	stats := sc.Scan()
	if stats.Scanned != 3 {
		t.Errorf("scanned = %d", stats.Scanned)
	}
	if stats.Duplicates != 1 || stats.DuplicateBytes != PageSize {
		t.Errorf("duplicates = %d (%d bytes)", stats.Duplicates, stats.DuplicateBytes)
	}
	if stats.ZeroFrames != 1 {
		t.Errorf("zero frames = %d", stats.ZeroFrames)
	}
}

func TestScannerSkipsFreedFrames(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)
	f := st.MustAlloc()
	st.Write(f, 0, []byte{9})
	sc.Track(f)
	st.DecRef(f)
	stats := sc.Scan()
	if stats.Scanned != 0 {
		t.Errorf("scanned freed frame: %+v", stats)
	}
}

func TestScannerUntrack(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)
	f := st.MustAlloc()
	st.Write(f, 0, []byte{7})
	sc.Track(f)
	sc.Untrack(f)
	if stats := sc.Scan(); stats.Scanned != 0 {
		t.Errorf("scanned untracked frame: %+v", stats)
	}
}

// The §5 claim in miniature: after SEUSS-style CoW sharing, a KSM scan
// finds almost nothing to merge, because identical pages are already
// the same frame.
func TestStructuralSharingLeavesNothingForKSM(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)

	// One "snapshot" frame shared CoW by many consumers: a single
	// frame, many references.
	shared := st.MustAlloc()
	st.Write(shared, 0, []byte("interpreter page"))
	sc.Track(shared)
	for i := 0; i < 100; i++ {
		st.IncRef(shared) // 100 UCs map it
	}

	stats := sc.Scan()
	if stats.Duplicates != 0 {
		t.Errorf("structural sharing produced %d mergeable duplicates", stats.Duplicates)
	}
	if stats.Scanned != 1 {
		t.Errorf("scanned = %d, want the single shared frame", stats.Scanned)
	}

	// Contrast: 100 *copies* of the page (what full per-function images
	// would produce) give KSM 99 merge targets.
	for i := 0; i < 100; i++ {
		cp, err := st.Clone(shared)
		if err != nil {
			t.Fatal(err)
		}
		sc.Track(cp)
	}
	stats = sc.Scan()
	if stats.Duplicates != 100 {
		t.Errorf("duplicates = %d, want 100", stats.Duplicates)
	}
}

func TestAttachedScannerTracksLifecycle(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)
	st.AttachScanner(sc)
	a := st.MustAlloc()
	st.Write(a, 0, []byte("x"))
	b, err := st.Clone(a)
	if err != nil {
		t.Fatal(err)
	}
	stats := sc.Scan()
	if stats.Scanned != 2 || stats.Duplicates != 1 {
		t.Errorf("stats = %+v", stats)
	}
	st.DecRef(b)
	stats = sc.Scan()
	if stats.Scanned != 1 || stats.Duplicates != 0 {
		t.Errorf("after free: %+v", stats)
	}
	st.DecRef(a)
	if sc.Scan().Scanned != 0 {
		t.Error("freed frame still tracked")
	}
}
