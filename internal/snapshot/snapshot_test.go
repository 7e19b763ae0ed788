package snapshot

import (
	"testing"
	"testing/quick"

	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

// bootSpace simulates a freshly booted UC that has written n pages.
func bootSpace(t *testing.T, st *mem.Store, n int) *pagetable.AddressSpace {
	t.Helper()
	as, err := pagetable.New(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := as.Store(uint64(i)*mem.PageSize, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

func TestCaptureRecordsDiff(t *testing.T) {
	st := mem.NewStore(0)
	as := bootSpace(t, st, 10)
	s, err := Capture("runtime", nil, as, Registers{PC: 0xfff})
	if err != nil {
		t.Fatal(err)
	}
	if s.DiffPages() != 10 {
		t.Errorf("DiffPages = %d, want 10", s.DiffPages())
	}
	if s.DiffBytes() != 10*mem.PageSize {
		t.Errorf("DiffBytes = %d", s.DiffBytes())
	}
	if s.Registers().PC != 0xfff {
		t.Error("registers not captured")
	}
	if as.DirtyCount() != 0 {
		t.Error("source dirty list not cleared")
	}
}

func TestSourceContinuesTransparently(t *testing.T) {
	st := mem.NewStore(0)
	as := bootSpace(t, st, 4)
	s, err := Capture("runtime", nil, as, Registers{})
	if err != nil {
		t.Fatal(err)
	}
	// Source keeps running and writes: must CoW-clone, not corrupt the
	// snapshot.
	if err := as.Store(0, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	dep, _, err := s.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	dep.Load(0, b)
	if b[0] != 1 {
		t.Errorf("snapshot corrupted by post-capture source write: %#x", b[0])
	}
	if as.Faults.CoW != 1 {
		t.Errorf("source faults = %+v, want 1 CoW", as.Faults)
	}
}

func TestDeployIsolation(t *testing.T) {
	st := mem.NewStore(0)
	as := bootSpace(t, st, 4)
	s, _ := Capture("runtime", nil, as, Registers{})
	a, _, _ := s.Deploy()
	b, _, _ := s.Deploy()
	a.Store(0, []byte{0xAA})
	b.Store(0, []byte{0xBB})
	ab, bb := make([]byte, 1), make([]byte, 1)
	a.Load(0, ab)
	b.Load(0, bb)
	if ab[0] != 0xAA || bb[0] != 0xBB {
		t.Errorf("deployments interfered: %x %x", ab, bb)
	}
	if s.ActiveUCs() != 2 || s.Deploys() != 2 {
		t.Errorf("counts: active=%d deploys=%d", s.ActiveUCs(), s.Deploys())
	}
}

func TestDeployCostIndependentOfImageSize(t *testing.T) {
	st := mem.NewStore(0)
	as := bootSpace(t, st, 512) // fills two PT nodes
	s, _ := Capture("big", nil, as, Registers{})
	before := st.Stats().FramesInUse
	if _, _, err := s.Deploy(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().FramesInUse - before; got != 1 {
		t.Errorf("deploy allocated %d frames, want 1 (root only)", got)
	}
}

func TestSnapshotStack(t *testing.T) {
	st := mem.NewStore(0)
	boot := bootSpace(t, st, 100) // "interpreter": 100 pages
	runtime, err := Capture("runtime", nil, boot, Registers{})
	if err != nil {
		t.Fatal(err)
	}

	// Cold path: deploy, import function Foo (writes 5 pages), capture.
	fooSpace, _, _ := runtime.Deploy()
	for i := 0; i < 5; i++ {
		fooSpace.Store(uint64(200+i)*mem.PageSize, []byte{0xF0})
	}
	foo, err := Capture("foo", runtime, fooSpace, Registers{})
	if err != nil {
		t.Fatal(err)
	}
	if foo.DiffPages() != 5 {
		t.Errorf("foo diff = %d, want 5", foo.DiffPages())
	}
	if foo.Base() != runtime {
		t.Error("foo base wrong")
	}
	if foo.StackDepth() != 2 {
		t.Errorf("depth = %d", foo.StackDepth())
	}
	if runtime.Children() != 1 {
		t.Errorf("runtime children = %d", runtime.Children())
	}

	// The §3 example: two functions share the interpreter. Total unique
	// bytes = runtime + foo diff + bar diff, not 2x runtime.
	barSpace, _, _ := runtime.Deploy()
	for i := 0; i < 7; i++ {
		barSpace.Store(uint64(300+i)*mem.PageSize, []byte{0xBA})
	}
	bar, _ := Capture("bar", runtime, barSpace, Registers{})
	if got := runtime.TotalBytes() + foo.DiffBytes() + bar.DiffBytes(); got != int64(100+5+7)*mem.PageSize {
		t.Errorf("stack bytes = %d", got)
	}

	// Deploy from foo: sees interpreter pages AND foo's pages.
	uc, _, _ := foo.Deploy()
	b := make([]byte, 1)
	uc.Load(0, b)
	if b[0] != 1 {
		t.Error("UC missing interpreter page")
	}
	uc.Load(202*mem.PageSize, b)
	if b[0] != 0xF0 {
		t.Error("UC missing foo page")
	}
	uc.Load(302*mem.PageSize, b)
	if b[0] != 0 {
		t.Error("UC sees bar page through foo snapshot")
	}
}

func TestDeleteSafety(t *testing.T) {
	st := mem.NewStore(0)
	boot := bootSpace(t, st, 10)
	runtime, _ := Capture("runtime", nil, boot, Registers{})
	fnSpace, _, _ := runtime.Deploy()
	fnSpace.Store(0x999000, []byte{1})
	fn, _ := Capture("fn", runtime, fnSpace, Registers{})

	// Runtime has a child: cannot delete.
	if err := runtime.Delete(); err != errInUse {
		t.Errorf("delete with child: %v", err)
	}

	uc, _, _ := fn.Deploy()
	if err := fn.Delete(); err != errInUse {
		t.Errorf("delete with active UC: %v", err)
	}
	uc.Release()
	fn.ReleaseUC()
	if err := fn.Delete(); err != nil {
		t.Errorf("delete idle fn snapshot: %v", err)
	}
	if !fn.Deleted() {
		t.Error("not marked deleted")
	}
	// Idempotent.
	if err := fn.Delete(); err != nil {
		t.Errorf("re-delete: %v", err)
	}
	// Note: the UC that fn was captured FROM (fnSpace) still holds
	// references via runtime's Deploy — release it, then runtime can go.
	fnSpace.Release()
	runtime.ReleaseUC()
	if err := runtime.Delete(); err != nil {
		t.Errorf("delete runtime after children gone: %v", err)
	}
}

func TestDeployFromDeleted(t *testing.T) {
	st := mem.NewStore(0)
	boot := bootSpace(t, st, 1)
	s, _ := Capture("s", nil, boot, Registers{})
	boot.Release()
	if err := s.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Deploy(); err != errDeleted {
		t.Errorf("err = %v", err)
	}
	if s.FootprintPages() != 0 {
		t.Error("deleted snapshot reports footprint")
	}
}

func TestReleaseUCUnderflowPanics(t *testing.T) {
	st := mem.NewStore(0)
	boot := bootSpace(t, st, 1)
	s, _ := Capture("s", nil, boot, Registers{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.ReleaseUC()
}

func TestCaptureFromFrozenFails(t *testing.T) {
	st := mem.NewStore(0)
	boot := bootSpace(t, st, 1)
	boot.SetCoWAll()
	boot.Freeze()
	if _, err := Capture("bad", nil, boot, Registers{}); err == nil {
		t.Fatal("capture from frozen space succeeded")
	}
}

func TestNoFrameLeaksThroughLifecycle(t *testing.T) {
	st := mem.NewStore(0)
	boot := bootSpace(t, st, 50)
	runtime, _ := Capture("runtime", nil, boot, Registers{})
	boot.Release()

	for i := 0; i < 10; i++ {
		space, _, _ := runtime.Deploy()
		space.Store(uint64(1000+i)*mem.PageSize, []byte{1})
		space.Release()
		runtime.ReleaseUC()
	}
	if err := runtime.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().FramesInUse; got != 0 {
		t.Errorf("leaked %d frames", got)
	}
}

func TestFootprintPages(t *testing.T) {
	st := mem.NewStore(0)
	boot := bootSpace(t, st, 8)
	runtime, _ := Capture("runtime", nil, boot, Registers{})
	fp := runtime.FootprintPages()
	// 8 diff pages + at least the root table node.
	if fp < 9 {
		t.Errorf("FootprintPages = %d", fp)
	}
}

// Property: any write pattern on a deployed UC never changes what a
// second, later deployment reads (snapshot immutability).
func TestQuickImmutability(t *testing.T) {
	prop := func(writes []uint16) bool {
		st := mem.NewStore(0)
		boot, err := pagetable.New(st)
		if err != nil {
			return false
		}
		for i := 0; i < 32; i++ {
			boot.Store(uint64(i)*mem.PageSize, []byte{byte(i ^ 0x5A)})
		}
		s, err := Capture("s", nil, boot, Registers{})
		if err != nil {
			return false
		}
		first, _, _ := s.Deploy()
		for _, w := range writes {
			first.Store(uint64(w%64)*mem.PageSize, []byte{0xFF})
		}
		second, _, _ := s.Deploy()
		for i := 0; i < 32; i++ {
			b := make([]byte, 1)
			second.Load(uint64(i)*mem.PageSize, b)
			if b[0] != byte(i^0x5A) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: diff pages of a capture equals the number of distinct pages
// written since deployment.
func TestQuickDiffEqualsDistinctWrites(t *testing.T) {
	prop := func(writes []uint16) bool {
		st := mem.NewStore(0)
		boot, err := pagetable.New(st)
		if err != nil {
			return false
		}
		boot.Store(0, []byte{1})
		base, err := Capture("base", nil, boot, Registers{})
		if err != nil {
			return false
		}
		uc, _, _ := base.Deploy()
		distinct := map[uint64]bool{}
		for _, w := range writes {
			va := uint64(w%128) * mem.PageSize
			uc.Store(va, []byte{2})
			distinct[va] = true
		}
		diff, err := Capture("diff", base, uc, Registers{})
		if err != nil {
			return false
		}
		return diff.DiffPages() == len(distinct)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
