package pagetable

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"seuss/internal/mem"
)

// sparsePages returns 256 page addresses, ascending: every combination
// of slots 0, 63, 64 and 511 at each of the four levels — both ends of
// an occupancy bitmap and both sides of its first word boundary — so
// every interior node on the way holds four children.
func sparsePages() []uint64 {
	slots := []uint64{0, 63, 64, 511}
	var out []uint64
	for _, a := range slots {
		for _, b := range slots {
			for _, c := range slots {
				for _, d := range slots {
					out = append(out, a<<39|b<<30|c<<21|d<<12)
				}
			}
		}
	}
	return out
}

// nodesFor is the model's answer to TableNodes: the root plus one node
// per distinct PDPT, PD and PT prefix among pages.
func nodesFor(pages []uint64) int {
	n := 1
	for _, shift := range []uint{39, 30, 21} {
		prefixes := map[uint64]bool{}
		for _, va := range pages {
			prefixes[va>>shift] = true
		}
		n += len(prefixes)
	}
	return n
}

// checkAgainstModel compares everything a space reports about its
// mappings with a map from page address to the byte last stored there.
func checkAgainstModel(t *testing.T, label string, as *AddressSpace, model map[uint64]byte) {
	t.Helper()
	var pages []uint64
	for va := range model {
		pages = append(pages, va)
	}
	slices.Sort(pages)
	if got := as.PresentPages(); !slices.Equal(got, pages) {
		t.Fatalf("%s: PresentPages has %d pages, model %d (or order differs)", label, len(got), len(pages))
	}
	if as.MappedPages() != len(pages) {
		t.Errorf("%s: MappedPages = %d, model %d", label, as.MappedPages(), len(pages))
	}
	if total, _ := as.TableNodes(); total != nodesFor(pages) {
		t.Errorf("%s: TableNodes = %d, model %d", label, total, nodesFor(pages))
	}
	b := make([]byte, 1)
	for _, va := range pages {
		if err := as.Load(va, b); err != nil || b[0] != model[va] {
			t.Fatalf("%s: Load(%#x) = %d, %v; model %d", label, va, b[0], err, model[va])
		}
		if _, _, ok := as.Translate(va); !ok {
			t.Fatalf("%s: Translate(%#x) not mapped", label, va)
		}
		// A neighbour the model lacks must read as absent, not as the
		// slot beside it.
		next := va + mem.PageSize
		if _, inModel := model[next]; inModel {
			continue
		}
		if _, _, ok := as.Translate(next); ok {
			t.Fatalf("%s: Translate(%#x) mapped, model has no such page", label, next)
		}
	}
}

// TestSparseShapesMatchModel drives interior nodes with several
// children — which the 24-page model test never builds — through store,
// clone, privatize, release and pool reuse, checking against a map.
func TestSparseShapesMatchModel(t *testing.T) {
	st := mem.NewStore(0)
	live, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	pages := sparsePages()
	model := map[uint64]byte{}
	// 101 is coprime to 256: every page once, never in ascending order,
	// so children are inserted before, between and after their siblings.
	for i := range pages {
		va := pages[i*101%len(pages)]
		if err := live.Store(va, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		model[va] = byte(i)
	}
	checkAgainstModel(t, "stored", live, model)
	if total, private := live.TableNodes(); private != total {
		t.Errorf("fresh space: %d of %d nodes private", private, total)
	}

	snap := snapshotStyleCapture(t, live)
	snapModel := map[uint64]byte{}
	for va, b := range model {
		snapModel[va] = b
	}
	checkAgainstModel(t, "clone", snap, snapModel)
	checkAgainstModel(t, "cloned-from", live, model)
	if _, private := live.TableNodes(); private != 1 {
		t.Errorf("after clone: %d private nodes, want the root alone", private)
	}

	// Privatize some paths: rewrite every third page, and map new pages
	// into slots beside the shared ones.
	var written []uint64
	for i := 0; i < len(pages); i += 3 {
		written = append(written, pages[i])
	}
	for _, slot := range []uint64{1, 62, 65, 510} {
		written = append(written, slot<<39|slot<<30|slot<<21|slot<<12)
	}
	for _, va := range written {
		if err := live.Store(va, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		model[va] = 0xEE
	}
	checkAgainstModel(t, "privatized", live, model)
	checkAgainstModel(t, "clone after source wrote", snap, snapModel)
	if _, private := live.TableNodes(); private != nodesFor(written) {
		t.Errorf("after writes: %d private nodes, model %d", private, nodesFor(written))
	}

	// Release: the clone goes, the source keeps every mapping and is
	// the only owner again.
	snap.Release()
	checkAgainstModel(t, "clone released", live, model)
	if total, private := live.TableNodes(); private != total {
		t.Errorf("sole owner: %d of %d nodes private", private, total)
	}
	for _, va := range written[:8] {
		if err := live.Unmap(va); err != nil {
			t.Fatal(err)
		}
		delete(model, va)
	}
	checkAgainstModel(t, "unmapped", live, model)

	// Pool reuse: releasing a deployed space recycles every node it
	// privatized; a second deploy that builds a different shape out of
	// them must see no child, frame or flag of the first.
	snap = snapshotStyleCapture(t, live)
	first, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range pages {
		if err := first.Touch(va); err != nil {
			t.Fatal(err)
		}
	}
	first.Release()
	second, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []uint64{2, 61, 66, 509} {
		va := slot<<39 | slot<<30 | slot<<21 | slot<<12
		if err := second.Store(va, []byte{byte(slot)}); err != nil {
			t.Fatal(err)
		}
		model[va] = byte(slot)
	}
	checkAgainstModel(t, "built from recycled nodes", second, model)

	second.Release()
	snap.Release()
	live.Release()
	if got := st.Stats().FramesInUse; got != 0 {
		t.Errorf("%d frames in use after every space was released", got)
	}
}

// TestQuickSetCoWAllLeavesNothingWritable: SetCoWAll skips subtrees it
// shares with a clone, on the argument that they were downgraded before
// the clone was taken. Whatever sequence of stores, captures and
// redeploys came before, no present page may translate writable after.
func TestQuickSetCoWAllLeavesNothingWritable(t *testing.T) {
	pages := sparsePages()
	type op struct{ Kind, Page uint8 }
	prop := func(ops []op) bool {
		st := mem.NewStore(0)
		cur, err := New(st)
		if err != nil {
			return false
		}
		var snaps []*AddressSpace
		downgraded := func() bool {
			cur.SetCoWAll()
			for _, va := range cur.PresentPages() {
				if _, flags, ok := cur.Translate(va); !ok || flags&flagWritable != 0 {
					return false
				}
			}
			return true
		}
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0, 1: // store
				if cur.Store(pages[o.Page], []byte{o.Page}) != nil {
					return false
				}
			case 2: // capture; the source lives on, as a UC does
				if !downgraded() {
					return false
				}
				snap, err := cur.Clone()
				if err != nil {
					return false
				}
				snap.Freeze()
				cur.ClearDirty()
				snaps = append(snaps, snap)
			case 3: // destroy the UC and deploy one from an earlier capture
				if len(snaps) == 0 {
					continue
				}
				next, err := snaps[int(o.Page)%len(snaps)].Clone()
				if err != nil {
					return false
				}
				cur.Release()
				cur = next
			}
		}
		return downgraded()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestUnmapOfUnmappedAddressBuildsNothing: a miss must report
// ErrNotMapped without privatizing or creating the path to the address,
// whose table frames would be charged to the space.
func TestUnmapOfUnmappedAddressBuildsNothing(t *testing.T) {
	st := mem.NewStore(0)
	parent := buildParent(t, st, 4)
	child, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	frames := st.Stats().FramesInUse
	total, private := child.TableNodes()
	for _, va := range []uint64{
		0x7000,  // inside the parent's PT: a build walk would privatize three nodes
		5 << 39, // under an empty root slot: a build walk would create three
	} {
		if err := child.Unmap(va); err != errNotMapped {
			t.Errorf("Unmap(%#x) = %v, want ErrNotMapped", va, err)
		}
	}
	if got := st.Stats().FramesInUse; got != frames {
		t.Errorf("a failed Unmap changed FramesInUse %d -> %d", frames, got)
	}
	if gotTotal, gotPrivate := child.TableNodes(); gotTotal != total || gotPrivate != private {
		t.Errorf("a failed Unmap changed TableNodes (%d, %d) -> (%d, %d)", total, private, gotTotal, gotPrivate)
	}
}

// TestNodeSizes pins what each node kind costs the host. A leaf is its
// header, 512 frame numbers and 512 flag bytes, and nothing in it is a
// pointer, so the collector never scans the ~440 mappings a PT holds. An
// interior node with up to inlineKids children is a single allocation.
func TestNodeSizes(t *testing.T) {
	var l leaf
	if got, want := unsafe.Sizeof(l), unsafe.Sizeof(l.nodeHeader)+entriesPer*4+entriesPer; got != want {
		t.Errorf("sizeof(leaf) = %d, want %d", got, want)
	}
	if got := unsafe.Sizeof(l.nodeHeader); got != 8 {
		t.Errorf("sizeof(nodeHeader) = %d, want 8: an accounting frame number and a count", got)
	}
	var scanned func(reflect.Type, string) []string
	scanned = func(typ reflect.Type, path string) []string {
		switch typ.Kind() {
		case reflect.Struct:
			var out []string
			for i := range typ.NumField() {
				out = append(out, scanned(typ.Field(i).Type, path+"."+typ.Field(i).Name)...)
			}
			return out
		case reflect.Array:
			return scanned(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint, reflect.Uintptr:
			return nil
		}
		return []string{path + " (" + typ.String() + ")"}
	}
	if ptrs := scanned(reflect.TypeOf(l), "leaf"); len(ptrs) > 0 {
		t.Errorf("leaf has fields the collector must scan: %v", ptrs)
	}
	if got := unsafe.Sizeof(interior{}); got > 176 {
		t.Errorf("sizeof(interior) = %d, want <= 176", got)
	}

	as, err := New(mem.NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{0x1000, 255 << 39} {
		if err := as.Touch(va); err != nil {
			t.Fatal(err)
		}
	}
	if len(as.root.kids) != 2 || &as.root.kids[0] != &as.root.few[0] {
		t.Error("a root with two children keeps them outside its own allocation")
	}
}
