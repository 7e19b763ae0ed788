package snapshot

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

// buildTestSnapshot makes a snapshot with a mix of materialized and
// zero pages, deliberately cycling frames through the pool first so the
// export path reads from recycled buffers.
func buildTestSnapshot(t *testing.T, name string) (*Snapshot, *mem.Store) {
	t.Helper()
	st := mem.NewStore(0)
	// Churn the frame pool so exported frames are recycled ones.
	churn := make([]mem.Frame, 32)
	for i := range churn {
		churn[i] = mustAlloc(st)
		st.Write(churn[i], 0, []byte{0xEE, byte(i)})
	}
	for _, f := range churn {
		st.DecRef(f)
	}
	space, err := pagetable.New(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		va := uint64(i) * mem.PageSize
		if i%3 == 0 {
			if err := space.Touch(va); err != nil { // zero page
				t.Fatal(err)
			}
		} else {
			content := bytes.Repeat([]byte{byte(i)}, 97)
			if err := space.Store(va+5, content); err != nil {
				t.Fatal(err)
			}
		}
	}
	regs := Registers{PC: 0x1234, SP: 0x5678, Flags: 2}
	for i := range regs.GPR {
		regs.GPR[i] = uint64(i * 17)
	}
	snap, err := Capture(name, nil, space, regs)
	if err != nil {
		t.Fatal(err)
	}
	space.Release()
	return snap, st
}

// referenceExport is the pre-zero-copy encoder, kept verbatim as the
// equivalence oracle: buffered bytes.Buffer construction, binary.Write,
// and a per-page scratch copy.
func referenceExport(s *Snapshot, w *bytes.Buffer) {
	referenceExportPages(s, s.diffPageSet(), w)
}

// referenceDiffPageSet is the diff as it was found before the paired
// walk, kept as the oracle for diffPageSet: every present page of the
// snapshot's space, translated in both spaces, kept when the frames
// differ, then merged with the lazy zero pages.
func referenceDiffPageSet(s *Snapshot) []diffPage {
	var out []diffPage
	var baseSpace *pagetable.AddressSpace
	if s.base != nil {
		baseSpace = s.base.space
	}
	for _, va := range s.space.PresentPages() {
		f, _, ok := s.space.Translate(va)
		if !ok {
			continue
		}
		if baseSpace != nil {
			if bf, _, bok := baseSpace.Translate(va); bok && bf == f {
				continue
			}
		}
		out = append(out, diffPage{va: va, frame: f})
	}
	for _, va := range s.lazyZero {
		out = append(out, diffPage{va: va})
	}
	slices.SortFunc(out, func(a, b diffPage) int { return cmp.Compare(a.va, b.va) })
	return out
}

// referenceExportPages encodes s with the given diff page set.
func referenceExportPages(s *Snapshot, pages []diffPage, w *bytes.Buffer) {
	var buf bytes.Buffer
	buf.WriteString(codecMagic)
	writeU16 := func(v uint16) { binary.Write(&buf, binary.LittleEndian, v) }
	writeU16(codecVersion)
	writeU16(0)
	writeString := func(str string) {
		writeU16(uint16(len(str)))
		buf.WriteString(str)
	}
	writeString(s.name)
	baseName := ""
	if s.base != nil {
		baseName = s.base.name
	}
	writeString(baseName)
	binary.Write(&buf, binary.LittleEndian, s.regs.PC)
	binary.Write(&buf, binary.LittleEndian, s.regs.SP)
	binary.Write(&buf, binary.LittleEndian, s.regs.Flags)
	for _, g := range s.regs.GPR {
		binary.Write(&buf, binary.LittleEndian, g)
	}
	binary.Write(&buf, binary.LittleEndian, uint32(0)) // no payload
	binary.Write(&buf, binary.LittleEndian, uint32(len(pages)))
	content := make([]byte, mem.PageSize)
	st := s.space.Backing()
	for _, pg := range pages {
		binary.Write(&buf, binary.LittleEndian, pg.va)
		if st.Materialized(pg.frame) {
			buf.WriteByte(1)
			st.Read(pg.frame, 0, content)
			buf.Write(content)
		} else {
			buf.WriteByte(0)
		}
	}
	binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes()))
	w.Write(buf.Bytes())
}

// TestZeroCopyExportByteIdentical: the streaming zero-copy encoder must
// produce the exact wire bytes of the buffered reference encoder.
func TestZeroCopyExportByteIdentical(t *testing.T) {
	snap, _ := buildTestSnapshot(t, "equiv")
	var streamed, reference bytes.Buffer
	if err := snap.Export(&streamed); err != nil {
		t.Fatal(err)
	}
	referenceExport(snap, &reference)
	if !bytes.Equal(streamed.Bytes(), reference.Bytes()) {
		t.Fatalf("zero-copy export differs from reference: %d vs %d bytes",
			streamed.Len(), reference.Len())
	}
}

// mutateLayer applies n random operations to a deployed space: content
// stores and bare touches spread over PT, PD and PDPT slots of their
// own, unmaps of mapped pages (pages the child drops from its base),
// and touch-then-unmap pairs that leave a privatized leaf holding only
// its base's frames.
func mutateLayer(t *testing.T, rng *rand.Rand, space *pagetable.AddressSpace, n int) {
	t.Helper()
	spans := []uint64{0, 1 << 21, 5 << 21, 1 << 30, 1 << 39}
	for i := 0; i < n; i++ {
		span := spans[rng.Intn(len(spans))]
		va := span + uint64(rng.Intn(48))*mem.PageSize
		var err error
		switch op := rng.Intn(10); {
		case op < 5:
			err = space.Store(va, []byte{byte(1 + rng.Intn(255))})
		case op < 7:
			err = space.Touch(va)
		case op < 9:
			if _, _, ok := space.Translate(va); ok {
				err = space.Unmap(va)
			}
		default:
			spare := span + uint64(256+rng.Intn(64))*mem.PageSize
			if _, _, ok := space.Translate(spare); !ok {
				if err = space.Touch(spare); err == nil {
					err = space.Unmap(spare)
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffWalkMatchesReference: over seeded stacks one to three deep,
// built by Capture and by GraftWire (so lazy zero pages are part of the
// diff), the paired walk must find exactly the page set the
// present-pages scan finds, and Export must encode exactly the
// reference encoder's bytes over that set — the root export included.
func TestDiffWalkMatchesReference(t *testing.T) {
	check := func(label string, s *Snapshot) {
		t.Helper()
		got, want := s.diffPageSet(), referenceDiffPageSet(s)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: diff walk found %d pages, reference %d (or they differ)", label, len(got), len(want))
		}
		var wire, ref bytes.Buffer
		if err := s.Export(&wire); err != nil {
			t.Fatal(err)
		}
		referenceExportPages(s, want, &ref)
		if !bytes.Equal(wire.Bytes(), ref.Bytes()) {
			t.Fatalf("%s: export differs from the reference: %d vs %d bytes", label, wire.Len(), ref.Len())
		}
	}
	lazy := 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := mem.NewStore(0)
		boot, err := pagetable.New(st)
		if err != nil {
			t.Fatal(err)
		}
		mutateLayer(t, rng, boot, 120)
		root, err := Capture("runtime/x", nil, boot, Registers{PC: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		check("root", root)
		parent := root
		for depth := 1; depth <= 1+int(seed%3); depth++ {
			space, _, err := parent.Deploy()
			if err != nil {
				t.Fatal(err)
			}
			mutateLayer(t, rng, space, 40)
			name := fmt.Sprintf("fn/%d/%d", seed, depth)
			child, err := Capture(name, parent, space, Registers{PC: uint64(depth)})
			if err != nil {
				t.Fatal(err)
			}
			space.Release()
			parent.ReleaseUC()
			check(name+" captured", child)
			var wire bytes.Buffer
			if err := child.Export(&wire); err != nil {
				t.Fatal(err)
			}
			grafted, _, err := GraftWire(wire.Bytes(), parent)
			if err != nil {
				t.Fatal(err)
			}
			lazy += len(grafted.lazyZero)
			check(name+" grafted", grafted)
			// Alternate which of the two the next layer stacks on.
			if depth%2 == int(seed%2) {
				parent = grafted
			} else {
				parent = child
			}
		}
	}
	if lazy == 0 {
		t.Fatal("no graft left a lazy zero page: the lazy merge went unchecked")
	}
}

// TestImportBytesAliasesWire: the decoder must not copy page contents.
func TestImportBytesAliasesWire(t *testing.T) {
	snap, _ := buildTestSnapshot(t, "equiv2")
	var wire bytes.Buffer
	if err := snap.Export(&wire); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	viaBytes, err := ImportBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-copy: decoded contents alias the raw wire image.
	for va, content := range viaBytes.Contents {
		if len(content) != mem.PageSize {
			t.Fatalf("page %#x content length %d", va, len(content))
		}
		p := &content[0]
		aliased := false
		for i := range raw {
			if &raw[i] == p {
				aliased = true
				break
			}
		}
		if !aliased {
			t.Fatalf("page %#x content does not alias the wire image (copied)", va)
		}
		break // one page suffices
	}
}

// TestZeroCopyRoundTripThroughMaterialize: wire → ImportBytes →
// Materialize → Export must reproduce identical page contents.
func TestZeroCopyRoundTripThroughMaterialize(t *testing.T) {
	snap, _ := buildTestSnapshot(t, "rt")
	var wire bytes.Buffer
	if err := snap.Export(&wire); err != nil {
		t.Fatal(err)
	}
	diff, err := ImportBytes(wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st2 := mem.NewStore(0)
	rebuilt, err := Materialize(diff, st2)
	if err != nil {
		t.Fatal(err)
	}
	var rewire bytes.Buffer
	if err := rebuilt.Export(&rewire); err != nil {
		t.Fatal(err)
	}
	rediff, err := ImportBytes(rewire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rediff.PageVAs) != len(diff.PageVAs) {
		t.Fatalf("page count drifted: %d vs %d", len(rediff.PageVAs), len(diff.PageVAs))
	}
	for _, va := range diff.PageVAs {
		if !bytes.Equal(diff.Contents[va], rediff.Contents[va]) {
			t.Fatalf("page %#x content drifted through materialize", va)
		}
	}
}
