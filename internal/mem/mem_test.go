package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAndAccounting(t *testing.T) {
	s := NewStore(0)
	f := s.MustAlloc()
	if s.Refs(f) != 1 {
		t.Errorf("refs = %d, want 1", s.Refs(f))
	}
	st := s.Stats()
	if st.FramesInUse != 1 || st.BytesInUse != PageSize {
		t.Errorf("stats = %+v", st)
	}
	s.DecRef(f)
	if got := s.Stats().FramesInUse; got != 0 {
		t.Errorf("FramesInUse after free = %d", got)
	}
}

func TestBudgetEnforced(t *testing.T) {
	s := NewStore(3 * PageSize)
	for i := 0; i < 3; i++ {
		if _, err := s.Alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := s.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if s.Available() != 0 {
		t.Errorf("Available = %d", s.Available())
	}
}

func TestBudgetFreesReturnCapacity(t *testing.T) {
	s := NewStore(PageSize)
	f := s.MustAlloc()
	if _, err := s.Alloc(); err == nil {
		t.Fatal("over-budget alloc succeeded")
	}
	s.DecRef(f)
	if _, err := s.Alloc(); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestUnlimitedStoreAvailable(t *testing.T) {
	s := NewStore(0)
	if s.Available() != -1 {
		t.Errorf("Available = %d, want -1", s.Available())
	}
}

func TestLazyMaterialization(t *testing.T) {
	s := NewStore(0)
	f := s.MustAlloc()
	if s.Materialized(f) {
		t.Error("fresh frame is materialized")
	}
	buf := make([]byte, 8)
	s.Read(f, 0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unmaterialized frame read nonzero")
		}
	}
	s.Write(f, 100, []byte("hello"))
	if !s.Materialized(f) {
		t.Error("written frame not materialized")
	}
	got := make([]byte, 5)
	s.Read(f, 100, got)
	if string(got) != "hello" {
		t.Errorf("read %q", got)
	}
	if s.Stats().Materialized != 1 {
		t.Errorf("Materialized = %d", s.Stats().Materialized)
	}
}

func TestEmptyWriteDoesNotMaterialize(t *testing.T) {
	s := NewStore(0)
	f := s.MustAlloc()
	s.Write(f, 0, nil)
	if s.Materialized(f) {
		t.Error("empty write materialized frame")
	}
}

func TestWriteOutOfBoundsPanics(t *testing.T) {
	s := NewStore(0)
	f := s.MustAlloc()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Write(f, PageSize-2, []byte("abc"))
}

func TestReadOutOfBoundsPanics(t *testing.T) {
	s := NewStore(0)
	f := s.MustAlloc()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Read(f, -1, make([]byte, 1))
}

func TestRefCounting(t *testing.T) {
	s := NewStore(0)
	f := s.MustAlloc()
	s.IncRef(f)
	s.IncRef(f)
	if s.Refs(f) != 3 {
		t.Fatalf("refs = %d", s.Refs(f))
	}
	s.DecRef(f)
	s.DecRef(f)
	if s.Stats().FramesInUse != 1 {
		t.Error("frame freed while referenced")
	}
	s.DecRef(f)
	if s.Stats().FramesInUse != 0 {
		t.Error("frame not freed at zero refs")
	}
}

func TestDecRefOnFreedFramePanics(t *testing.T) {
	s := NewStore(0)
	f := s.MustAlloc()
	s.DecRef(f)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.DecRef(f)
}

func TestIncRefOnFreedFramePanics(t *testing.T) {
	s := NewStore(0)
	f := s.MustAlloc()
	s.DecRef(f)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.IncRef(f)
}

func TestCloneCopiesContent(t *testing.T) {
	s := NewStore(0)
	src := s.MustAlloc()
	s.Write(src, 0, []byte("original"))
	dst, err := s.Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	s.Read(dst, 0, got)
	if string(got) != "original" {
		t.Errorf("clone read %q", got)
	}
	// Mutating the clone must not affect the source (CoW isolation).
	s.Write(dst, 0, []byte("mutated!"))
	s.Read(src, 0, got)
	if string(got) != "original" {
		t.Errorf("source corrupted by clone write: %q", got)
	}
}

func TestCloneOfZeroFrameStaysLazy(t *testing.T) {
	s := NewStore(0)
	src := s.MustAlloc()
	dst, err := s.Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Materialized(dst) {
		t.Error("clone of zero frame materialized")
	}
}

func TestHighWaterMark(t *testing.T) {
	s := NewStore(0)
	var frames []Frame
	for i := 0; i < 10; i++ {
		frames = append(frames, s.MustAlloc())
	}
	for _, f := range frames {
		s.DecRef(f)
	}
	st := s.Stats()
	if st.HighWater != 10 {
		t.Errorf("HighWater = %d, want 10", st.HighWater)
	}
	if st.Allocs != 10 || st.Frees != 10 {
		t.Errorf("Allocs/Frees = %d/%d", st.Allocs, st.Frees)
	}
}

func TestUniqueFrameIDs(t *testing.T) {
	s := NewStore(0)
	seen := map[Frame]bool{}
	for i := 0; i < 1000; i++ {
		f := s.MustAlloc()
		if f == 0 || seen[f] {
			t.Fatalf("frame number %d handed out twice, or zero", f)
		}
		seen[f] = true
	}
}

// Property: for any sequence of writes within a page, reading back each
// written region returns the written bytes (last-writer-wins at byte
// granularity is exercised by overlapping writes below).
func TestQuickWriteReadRoundTrip(t *testing.T) {
	s := NewStore(0)
	prop := func(off uint16, data []byte) bool {
		o := int(off) % PageSize
		if o+len(data) > PageSize {
			data = data[:PageSize-o]
		}
		f := s.MustAlloc()
		defer s.DecRef(f)
		s.Write(f, o, data)
		got := make([]byte, len(data))
		s.Read(f, o, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: allocation never exceeds the budget, for any interleaving of
// allocs and frees.
func TestQuickBudgetInvariant(t *testing.T) {
	prop := func(ops []bool) bool {
		const budget = 8 * PageSize
		s := NewStore(budget)
		var live []Frame
		for _, alloc := range ops {
			if alloc {
				if f, err := s.Alloc(); err == nil {
					live = append(live, f)
				}
			} else if len(live) > 0 {
				s.DecRef(live[len(live)-1])
				live = live[:len(live)-1]
			}
			if s.Stats().BytesInUse > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
