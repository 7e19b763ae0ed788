package pagetable

import (
	"testing"
	"testing/quick"

	"seuss/internal/mem"
)

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	as, err := New(mem.NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestStoreLoadRoundTrip(t *testing.T) {
	as := newAS(t)
	data := []byte("skip redundant paths")
	if err := as.Store(0x400000, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Load(0x400000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("got %q", got)
	}
}

func TestStoreCrossesPageBoundary(t *testing.T) {
	as := newAS(t)
	va := uint64(mem.PageSize) - 3
	data := []byte("abcdefgh")
	if err := as.Store(va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Load(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("got %q", got)
	}
	if as.DirtyCount() != 2 {
		t.Errorf("dirty = %d, want 2 (two pages touched)", as.DirtyCount())
	}
}

func TestUnmappedLoadsReadZero(t *testing.T) {
	as := newAS(t)
	got := make([]byte, 16)
	got[3] = 0xff
	if err := as.Load(0xdead000, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unmapped load returned nonzero")
		}
	}
	if as.MappedPages() != 0 {
		t.Error("load created mappings")
	}
}

func TestDemandZeroFaultCounted(t *testing.T) {
	as := newAS(t)
	if err := as.Store(0x1000, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if as.Faults.DemandZero != 1 || as.Faults.CoW != 0 {
		t.Errorf("faults = %+v", as.Faults)
	}
	// Second store to same page: no new fault.
	if err := as.Store(0x1001, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if as.Faults.DemandZero != 1 {
		t.Errorf("refault on mapped page: %+v", as.Faults)
	}
}

func TestDirtyTracking(t *testing.T) {
	as := newAS(t)
	vas := []uint64{0x1000, 0x5000, 0x200000}
	for _, va := range vas {
		if err := as.Touch(va); err != nil {
			t.Fatal(err)
		}
	}
	dirty := as.DirtyPages()
	if len(dirty) != 3 {
		t.Fatalf("dirty = %v", dirty)
	}
	for i, va := range vas {
		if dirty[i] != va {
			t.Errorf("dirty[%d] = %#x, want %#x (sorted)", i, dirty[i], va)
		}
	}
	as.ClearDirty()
	if as.DirtyCount() != 0 {
		t.Error("ClearDirty left pages dirty")
	}
	// Flags cleared too.
	_, fl, ok := as.Translate(0x1000)
	if !ok || fl&flagDirty != 0 {
		t.Errorf("dirty bit survives ClearDirty: %v %v", fl, ok)
	}
}

func TestTouchRange(t *testing.T) {
	as := newAS(t)
	if err := as.TouchRange(0x10000, 10*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if as.DirtyCount() != 10 {
		t.Errorf("dirty = %d, want 10", as.DirtyCount())
	}
}

func TestMapFrameAndTranslate(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := New(st)
	f := mustAlloc(st)
	st.Write(f, 0, []byte("shared"))
	if err := as.MapFrame(0x7000, f, flagUser); err != nil {
		t.Fatal(err)
	}
	got, fl, ok := as.Translate(0x7abc)
	if !ok || got != f {
		t.Fatal("translate failed")
	}
	if fl&flagPresent == 0 {
		t.Error("present not set")
	}
	if st.Refs(f) != 2 {
		t.Errorf("frame refs = %d, want 2 (caller + mapping)", st.Refs(f))
	}
}

func TestMapFrameUnaligned(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := New(st)
	if err := as.MapFrame(0x7001, mustAlloc(st), 0); err != errBadAddress {
		t.Errorf("err = %v", err)
	}
}

func TestUnmap(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := New(st)
	f := mustAlloc(st)
	if err := as.MapFrame(0x7000, f, flagUser); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x7000); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := as.Translate(0x7000); ok {
		t.Error("still mapped")
	}
	if st.Refs(f) != 1 {
		t.Errorf("refs = %d, want 1", st.Refs(f))
	}
	if err := as.Unmap(0x7000); err != errNotMapped {
		t.Errorf("double unmap err = %v", err)
	}
}

func TestWriteProtectionFault(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := New(st)
	f := mustAlloc(st)
	// Read-only, not CoW: a genuine protection violation.
	if err := as.MapFrame(0x1000, f, flagUser); err != nil {
		t.Fatal(err)
	}
	if err := as.Store(0x1000, []byte{1}); err == nil {
		t.Fatal("store to read-only non-CoW page succeeded")
	}
}

func TestBadAddress(t *testing.T) {
	as := newAS(t)
	if err := as.Store(MaxVirtual, []byte{1}); err != errBadAddress {
		t.Errorf("store err = %v", err)
	}
	if err := as.Load(MaxVirtual, make([]byte, 1)); err != errBadAddress {
		t.Errorf("load err = %v", err)
	}
}

// buildParent creates a space with n pages of content, downgrades it to
// CoW and freezes it — the snapshot preparation sequence.
func buildParent(t *testing.T, st *mem.Store, n int) *AddressSpace {
	t.Helper()
	as, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := as.Store(uint64(i)*mem.PageSize, []byte{byte(i), 0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	as.SetCoWAll()
	as.ClearDirty()
	as.Freeze()
	return as
}

func TestCloneSharesFrames(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 8)
	before := st.Stats().FramesInUse
	child, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// A clone costs exactly one frame: the new root node.
	if got := st.Stats().FramesInUse - before; got != 1 {
		t.Errorf("clone allocated %d frames, want 1", got)
	}
	// Content visible through the clone.
	b := make([]byte, 2)
	if err := child.Load(3*mem.PageSize, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 3 || b[1] != 0xaa {
		t.Errorf("clone read %v", b)
	}
}

func TestCloneCoWIsolation(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 4)
	child, _ := parent.Clone()
	// Write through the child: must trigger a CoW fault and not be
	// visible in the parent.
	if err := child.Store(0, []byte{0x99}); err != nil {
		t.Fatal(err)
	}
	if child.Faults.CoW != 1 {
		t.Errorf("faults = %+v", child.Faults)
	}
	pb := make([]byte, 1)
	if err := parent.Load(0, pb); err != nil {
		t.Fatal(err)
	}
	if pb[0] != 0 {
		t.Errorf("parent saw child write: %v", pb)
	}
	cb := make([]byte, 1)
	child.Load(0, cb)
	if cb[0] != 0x99 {
		t.Errorf("child lost its write: %v", cb)
	}
	// CoW preserved the rest of the page.
	rest := make([]byte, 1)
	child.Load(1, rest)
	if rest[0] != 0xaa {
		t.Errorf("CoW clone lost original content: %v", rest)
	}
}

func TestTwoClonesAreIndependent(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 2)
	a, _ := parent.Clone()
	b, _ := parent.Clone()
	a.Store(0, []byte{1})
	b.Store(0, []byte{2})
	ab, bb := make([]byte, 1), make([]byte, 1)
	a.Load(0, ab)
	b.Load(0, bb)
	if ab[0] != 1 || bb[0] != 2 {
		t.Errorf("clones interfered: a=%v b=%v", ab, bb)
	}
}

func TestCloneDirtyListStartsEmpty(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 4)
	child, _ := parent.Clone()
	if child.DirtyCount() != 0 {
		t.Error("clone inherited dirty pages")
	}
	child.Touch(0)
	if child.DirtyCount() != 1 {
		t.Error("child dirty tracking broken")
	}
}

func TestReleaseReturnsAllFrames(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 16)
	child, _ := parent.Clone()
	child.Store(0, []byte{1}) // private page
	child.Release()
	parent.Release()
	if got := st.Stats().FramesInUse; got != 0 {
		t.Errorf("leaked %d frames", got)
	}
}

func TestReleaseChildKeepsParentIntact(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 8)
	child, _ := parent.Clone()
	child.Store(2*mem.PageSize, []byte{7})
	child.Release()
	b := make([]byte, 2)
	if err := parent.Load(2*mem.PageSize, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 2 || b[1] != 0xaa {
		t.Errorf("parent content damaged: %v", b)
	}
}

func TestFrozenStorePanics(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	parent.Store(0, []byte{1})
}

func TestTableClonePrivatizesPath(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 4)
	child, _ := parent.Clone()
	if err := child.Store(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Path PDPT, PD, PT (3 nodes) privatized on first write.
	if child.Faults.TableClones != 3 {
		t.Errorf("TableClones = %d, want 3", child.Faults.TableClones)
	}
	// Second write in same region: no more clones.
	child.Store(mem.PageSize, []byte{1})
	if child.Faults.TableClones != 3 {
		t.Errorf("TableClones after 2nd write = %d", child.Faults.TableClones)
	}
}

func TestTableNodesSharing(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 4)
	child, _ := parent.Clone()
	total, private := child.TableNodes()
	if total != 4 { // root + 3 shared interior/leaf
		t.Errorf("total = %d, want 4", total)
	}
	if private != 1 { // only the root
		t.Errorf("private = %d, want 1", private)
	}
}

func TestFootprintBytes(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 64)
	child, _ := parent.Clone()
	for i := 0; i < 5; i++ {
		child.Store(uint64(i)*mem.PageSize, []byte{9})
	}
	// 5 CoW pages + 3 privatized table nodes + 1 private root.
	want := int64(5+3+1) * mem.PageSize
	if got := child.FootprintBytes(); got != want {
		t.Errorf("FootprintBytes = %d, want %d", got, want)
	}
}

func TestStackedClones(t *testing.T) {
	// Snapshot-stack shape: base → fn snapshot → UC. Writes at each
	// level visible only downstream.
	st := mem.NewStore(0)
	base := buildParent(t, st, 4)

	fnSpace, _ := base.Clone()
	fnSpace.Store(mem.PageSize, []byte{0x11}) // the "function code" page
	fnSpace.SetCoWAll()
	fnSpace.ClearDirty()
	fnSpace.Freeze()

	uc, _ := fnSpace.Clone()
	uc.Store(2*mem.PageSize, []byte{0x22}) // "execution" writes

	b := make([]byte, 1)
	uc.Load(mem.PageSize, b)
	if b[0] != 0x11 {
		t.Error("UC does not see function snapshot write")
	}
	base.Load(mem.PageSize, b)
	if b[0] != 1 { // buildParent wrote {1, 0xaa} on page 1
		t.Errorf("base sees function snapshot write: %#x", b[0])
	}
	fnSpace.Load(2*mem.PageSize, b)
	if b[0] != 2 { // buildParent wrote {2, 0xaa} on page 2
		t.Errorf("function snapshot sees UC write: %#x", b[0])
	}
}

func TestResetFaults(t *testing.T) {
	as := newAS(t)
	as.Touch(0)
	prev := as.ResetFaults()
	if prev.DemandZero != 1 {
		t.Errorf("prev = %+v", prev)
	}
	if as.Faults.DemandZero != 0 {
		t.Error("not reset")
	}
	if prev.Copied() != 1 {
		t.Errorf("Copied = %d", prev.Copied())
	}
}

// Property: after any sequence of page-granular writes through a clone,
// every written page reads back the written value in the clone and the
// original value in the parent.
func TestQuickCloneIsolation(t *testing.T) {
	prop := func(pages []uint8) bool {
		st := mem.NewStore(0)
		parent, err := New(st)
		if err != nil {
			return false
		}
		for i := 0; i < 16; i++ {
			parent.Store(uint64(i)*mem.PageSize, []byte{byte(i + 1)})
		}
		parent.SetCoWAll()
		parent.ClearDirty()
		parent.Freeze()
		child, err := parent.Clone()
		if err != nil {
			return false
		}
		for _, p := range pages {
			pg := uint64(p%16) * mem.PageSize
			child.Store(pg, []byte{0xEE})
		}
		for i := 0; i < 16; i++ {
			pb := make([]byte, 1)
			parent.Load(uint64(i)*mem.PageSize, pb)
			if pb[0] != byte(i+1) {
				return false
			}
		}
		for _, p := range pages {
			cb := make([]byte, 1)
			child.Load(uint64(p%16)*mem.PageSize, cb)
			if cb[0] != 0xEE {
				return false
			}
		}
		child.Release()
		parent.Release()
		return st.Stats().FramesInUse == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: mapped-page accounting matches Translate over a random set
// of distinct pages.
func TestQuickMappedAccounting(t *testing.T) {
	prop := func(raw []uint16) bool {
		as, err := New(mem.NewStore(0))
		if err != nil {
			return false
		}
		seen := map[uint64]bool{}
		for _, r := range raw {
			va := uint64(r) * mem.PageSize
			as.Touch(va)
			seen[va] = true
		}
		if as.MappedPages() != len(seen) {
			return false
		}
		for va := range seen {
			if _, _, ok := as.Translate(va); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
