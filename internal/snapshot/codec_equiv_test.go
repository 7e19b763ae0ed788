package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
		churn[i] = st.MustAlloc()
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
	pages := s.diffPageSet()
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

// TestDeployKitCache exercises the snapshot-side kit parking contract.
func TestDeployKitCache(t *testing.T) {
	snap, _ := buildTestSnapshot(t, "kits")
	type kit struct{ n int }
	if got := snap.TakeDeployKit(); got != nil {
		t.Fatalf("empty cache returned %v", got)
	}
	if !snap.CacheDeployKit(&kit{1}) {
		t.Fatal("CacheDeployKit refused on live snapshot")
	}
	if snap.CachedDeployKits() != 1 {
		t.Fatalf("CachedDeployKits = %d", snap.CachedDeployKits())
	}
	k := snap.TakeDeployKit()
	if k == nil || k.(*kit).n != 1 {
		t.Fatalf("TakeDeployKit = %v", k)
	}
	for i := 0; i < maxDeployKits; i++ {
		if !snap.CacheDeployKit(&kit{i}) {
			t.Fatalf("cache refused at %d/%d", i, maxDeployKits)
		}
	}
	if snap.CacheDeployKit(&kit{99}) {
		t.Fatal("cache accepted beyond its bound")
	}
	if err := snap.Delete(); err != nil {
		t.Fatal(err)
	}
	if snap.TakeDeployKit() != nil {
		t.Fatal("deleted snapshot still held kits")
	}
	if snap.CacheDeployKit(&kit{0}) {
		t.Fatal("deleted snapshot accepted a kit")
	}
}
