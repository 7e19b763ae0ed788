package pagetable

import (
	"testing"

	"seuss/internal/mem"
)

// snapshotStyleCapture is the snapshot layer's capture: the live space
// stays writable, and the returned image is frozen.
func snapshotStyleCapture(t *testing.T, live *AddressSpace) *AddressSpace {
	t.Helper()
	snap, _, err := live.Capture()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestFaultBurstPrivatizesNodeOnce: with the software fault cache, a
// burst of faults in one PT span privatizes the node once, not per page.
func TestFaultBurstPrivatizesNodeOnce(t *testing.T) {
	st := mem.NewStore(0)
	parent, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := parent.Store(uint64(i)*mem.PageSize, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := snapshotStyleCapture(t, parent)
	child, _ := snap.Clone()
	child.ResetFaults()
	for i := 0; i < 32; i++ {
		if err := child.Touch(uint64(i) * mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := child.Faults.TableClones; got > levels-1 {
		t.Errorf("TableClones = %d for a single-span burst, want ≤ %d", got, levels-1)
	}
}

// TestFaultCacheInvalidatedByClone is the aliasing hazard test: after a
// space is cloned (captured), writes through the source must not land in
// page-table nodes the clone shares.
func TestFaultCacheInvalidatedByClone(t *testing.T) {
	st := mem.NewStore(0)
	live, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the fault cache.
	if err := live.Store(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotStyleCapture(t, live)
	// Write through the live space post-capture — with a stale cache this
	// would scribble into the frozen snapshot's shared PT node.
	if err := live.Store(0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := snap.Load(0, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 {
		t.Fatalf("frozen snapshot saw post-capture write: got %d, want 1", b[0])
	}
	var l [1]byte
	live.Load(0, l[:])
	if l[0] != 2 {
		t.Fatalf("live space lost its write: got %d, want 2", l[0])
	}
}

// TestCaptureCycleAllocatesNothing: a live space that is written,
// captured and written again, its images released as it goes, recycles
// every node, shell and frame, and its dirty set is bits, not a list
// that grows: steady-state cycles allocate nothing.
func TestCaptureCycleAllocatesNothing(t *testing.T) {
	st := mem.NewStore(0)
	as, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	if mem.PoisonEnabled {
		t.Skip("seusspoison never reuses a frame number, so the frame table keeps growing")
	}
	cycle := func() {
		for i := 0; i < 100; i++ {
			as.Touch(uint64(i) * mem.PageSize)
		}
		img, n, err := as.Capture()
		if err != nil || n != 100 {
			t.Fatalf("capture: %d dirty, %v", n, err)
		}
		img.Release()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("steady-state touch+capture cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestSpaceAndNodeRecycling: a release→clone cycle reuses pooled
// structures (no fresh frames beyond the recycled ones, stable frame
// accounting).
func TestSpaceAndNodeRecycling(t *testing.T) {
	if mem.PoisonEnabled {
		t.Skip("seusspoison never reuses a frame number, so the frame table keeps growing")
	}
	st := mem.NewStore(0)
	parent, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		parent.Store(uint64(i)*mem.PageSize, []byte{byte(i)})
	}
	snap := snapshotStyleCapture(t, parent)

	// Prime: one deploy/destroy cycle fills the pools.
	c, _ := snap.Clone()
	c.TouchRange(0, 8*mem.PageSize)
	c.Release()

	base := st.Stats().FramesInUse
	allocs := testing.AllocsPerRun(50, func() {
		child, err := snap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := child.TouchRange(0, 8*mem.PageSize); err != nil {
			t.Fatal(err)
		}
		child.Release()
	})
	if got := st.Stats().FramesInUse; got != base {
		t.Errorf("frame accounting drifted: %d -> %d", base, got)
	}
	if allocs != 0 {
		t.Errorf("steady-state clone/touch/release allocates %.1f/op, want 0", allocs)
	}
}
