package pagetable

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"seuss/internal/mem"
)

// modelOp is one operation in a random sequence checked against a
// shadow reference model (a plain map from page to last written byte).
type modelOp struct {
	Kind  uint8 // 0 store, 1 capture-and-redeploy, 2 release an image, 3 capture and continue
	Page  uint8
	Value byte
}

// TestQuickModelConformance drives random operation sequences through
// the page-table substrate and a trivial reference model in lockstep:
// after every step, every page the model knows must read back the
// model's value through the current address space.
func TestQuickModelConformance(t *testing.T) {
	const pages = 24
	prop := func(ops []modelOp) bool {
		st := mem.NewStore(0)
		cur, err := New(st)
		if err != nil {
			return false
		}
		var parents []*AddressSpace
		model := map[uint64]byte{}

		check := func() bool {
			for page, want := range model {
				b := make([]byte, 1)
				if err := cur.Load(page*mem.PageSize, b); err != nil {
					return false
				}
				if b[0] != want {
					return false
				}
			}
			return true
		}

		for _, op := range ops {
			page := uint64(op.Page % pages)
			switch op.Kind % 4 {
			case 0: // store
				if err := cur.Store(page*mem.PageSize, []byte{op.Value}); err != nil {
					return false
				}
				model[page] = op.Value
			case 1: // capture, destroy the UC, deploy from the image
				img, _, err := cur.Capture()
				if err != nil {
					return false
				}
				child, err := img.Clone()
				if err != nil {
					return false
				}
				cur.Release()
				parents = append(parents, img)
				cur = child
				// The model is unchanged: the clone sees everything.
			case 2: // release an old image: must not disturb cur
				if len(parents) > 1 {
					// Keep the lineage alive: release only the oldest
					// ancestor beyond the immediate parent. Snapshot
					// semantics forbid deleting depended-on images;
					// dropping a leaf reference is always safe.
					parents[0].Release()
					parents = parents[1:]
				}
			case 3: // capture and drop the image: the live space goes on
				img, _, err := cur.Capture()
				if err != nil {
					return false
				}
				img.Release()
				// Still writable via CoW faults; model unchanged.
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDirtyMatchesModel verifies the dirty set always equals the
// set of pages stored-to since the last capture.
func TestQuickDirtyMatchesModel(t *testing.T) {
	prop := func(writes []uint8, clearAt uint8) bool {
		as, err := New(mem.NewStore(0))
		if err != nil {
			return false
		}
		expected := map[uint64]bool{}
		for i, w := range writes {
			if i == int(clearAt) {
				img, n, err := as.Capture()
				if err != nil || n != len(expected) {
					return false
				}
				img.Release()
				expected = map[uint64]bool{}
			}
			page := uint64(w % 48)
			as.Store(page*mem.PageSize, []byte{1})
			expected[page*mem.PageSize] = true
		}
		got := as.DirtyPages()
		if len(got) != len(expected) {
			return false
		}
		for _, va := range got {
			if !expected[va] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDirtyBitsMatchReference drives seeded random sequences of Store,
// Touch, PrefetchWritable, Unmap, capture (continue or redeploy) and
// Release through a lineage of spaces, with a reference dirty set per
// live space: the pages written since it was deployed or last captured,
// less those unmapped. After every operation the live space's
// DirtyCount and DirtyPages must both equal its reference, DirtyPages
// ascending, and every captured image must hold no dirty page at all —
// even once the spaces that shared its leaves are gone.
func TestDirtyBitsMatchReference(t *testing.T) {
	// Pages across several leaves and interior slots, so captures share
	// and stores privatize more than one path.
	var pages []uint64
	for _, span := range []uint64{0, 1 << 21, 5 << 30, 3 << 39} {
		for i := uint64(0); i < 8; i++ {
			pages = append(pages, span+i*mem.PageSize)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := mem.NewStore(0)
		cur, err := New(st)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[uint64]bool{}
		var images []*AddressSpace
		page := func() uint64 { return pages[rng.Intn(len(pages))] }
		for step := 0; step < 150; step++ {
			var op string
			switch k := rng.Intn(10); {
			case k < 2:
				op = "store"
				va := page() + uint64(rng.Intn(mem.PageSize))
				if err := cur.Store(va, []byte{byte(step)}); err != nil {
					t.Fatal(err)
				}
				ref[PageBase(va)] = true
			case k < 4:
				op = "touch"
				va := page()
				if err := cur.Touch(va); err != nil {
					t.Fatal(err)
				}
				ref[va] = true
			case k < 5:
				op = "prefetch"
				vas := []uint64{page(), page(), page()}
				slices.Sort(vas)
				vas = slices.Compact(vas)
				if _, err := cur.PrefetchWritable(vas); err != nil {
					t.Fatal(err)
				}
				for _, va := range vas {
					ref[va] = true
				}
			case k < 6:
				op = "unmap"
				va := page()
				_, _, mapped := cur.Translate(va)
				if err := cur.Unmap(va); mapped != (err == nil) {
					t.Fatalf("seed %d step %d: Unmap(%#x) = %v, mapped %v", seed, step, va, err, mapped)
				}
				delete(ref, va)
			case k < 8:
				op = "capture"
				img, n, err := cur.Capture()
				if err != nil {
					t.Fatal(err)
				}
				if n != len(ref) {
					t.Fatalf("seed %d step %d: Capture counted %d dirty pages, reference %d", seed, step, n, len(ref))
				}
				images = append(images, img)
				clear(ref)
				if rng.Intn(2) == 0 {
					op = "capture and redeploy"
					next, err := images[rng.Intn(len(images))].Clone()
					if err != nil {
						t.Fatal(err)
					}
					cur.Release()
					cur = next
				}
			default:
				if len(images) == 0 {
					continue
				}
				op = "release"
				i := rng.Intn(len(images))
				if rng.Intn(2) == 0 {
					op = "release and redeploy"
					next, err := images[i].Clone()
					if err != nil {
						t.Fatal(err)
					}
					cur.Release()
					cur, ref = next, map[uint64]bool{}
				}
				images[i].Release()
				images = slices.Delete(images, i, i+1)
			}
			want := make([]uint64, 0, len(ref))
			for va := range ref {
				want = append(want, va)
			}
			slices.Sort(want)
			if n := cur.DirtyCount(); n != len(want) {
				t.Fatalf("seed %d step %d (%s): DirtyCount %d, reference %#x", seed, step, op, n, want)
			}
			if got := cur.DirtyPages(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): DirtyPages %#x, reference %#x", seed, step, op, got, want)
			}
			for _, img := range images {
				if img.DirtyCount() != 0 || len(img.DirtyPages()) != 0 {
					t.Fatalf("seed %d step %d (%s): an image holds dirty pages %#x", seed, step, op, img.DirtyPages())
				}
			}
		}
		cur.Release()
		for _, img := range images {
			img.Release()
		}
		if got := st.Stats().FramesInUse; got != 0 {
			t.Fatalf("seed %d: %d frames in use after every space was released", seed, got)
		}
	}
}
