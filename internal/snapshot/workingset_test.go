package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"seuss/internal/mem"
)

func TestWorkingSetRoundTrip(t *testing.T) {
	cases := [][]uint64{
		nil,
		{0},
		{4096},
		{0, 4096, 8192, 12288},
		{4096, 1 << 20, 1 << 30, 1 << 40},
		{mem.PageSize * 7, mem.PageSize * 8, mem.PageSize * 5000},
	}
	for _, pages := range cases {
		data, err := EncodeWorkingSet(pages)
		if err != nil {
			t.Fatalf("encode %v: %v", pages, err)
		}
		got, err := DecodeWorkingSet(data)
		if err != nil {
			t.Fatalf("decode %v: %v", pages, err)
		}
		if len(got) != len(pages) {
			t.Fatalf("round trip %v -> %v", pages, got)
		}
		for i := range pages {
			if got[i] != pages[i] {
				t.Fatalf("round trip %v -> %v", pages, got)
			}
		}
	}
}

func TestWorkingSetEncodeDeterministic(t *testing.T) {
	pages := []uint64{4096, 8192, 1 << 21, 1 << 33}
	a, err := EncodeWorkingSet(pages)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeWorkingSet(pages)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same pages encoded to different bytes")
	}
}

func TestWorkingSetEncodeRejectsBadInput(t *testing.T) {
	if _, err := EncodeWorkingSet([]uint64{4097}); err == nil {
		t.Error("unaligned page accepted")
	}
	if _, err := EncodeWorkingSet([]uint64{8192, 4096}); err == nil {
		t.Error("unsorted pages accepted")
	}
	if _, err := EncodeWorkingSet([]uint64{4096, 4096}); err == nil {
		t.Error("duplicate pages accepted")
	}
	if _, err := EncodeWorkingSet([]uint64{1 << 62}); err == nil {
		t.Error("out-of-range page accepted")
	}
}

func TestWorkingSetDecodeRejectsDamage(t *testing.T) {
	valid, err := EncodeWorkingSet([]uint64{4096, 8192, 1 << 25})
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly.
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeWorkingSet(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Every single-bit flip must fail the CRC (or, for flips inside the
	// CRC field itself, the comparison).
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		if _, err := DecodeWorkingSet(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded", i)
		}
	}
	// A hostile count with a recomputed CRC must be rejected by the
	// body-size bound, not by an allocation.
	hostile := append([]byte(nil), valid[:len(valid)-4]...)
	binary.LittleEndian.PutUint32(hostile[6:10], 1<<31)
	hostile = binary.LittleEndian.AppendUint32(hostile, crc32.ChecksumIEEE(hostile))
	if _, err := DecodeWorkingSet(hostile); err == nil {
		t.Fatal("hostile count decoded")
	}
}

func TestMergeWorkingSets(t *testing.T) {
	cases := []struct{ a, b, want []uint64 }{
		{nil, nil, []uint64{}},
		{[]uint64{1, 3}, nil, []uint64{1, 3}},
		{nil, []uint64{2}, []uint64{2}},
		{[]uint64{1, 3, 5}, []uint64{2, 3, 6}, []uint64{1, 2, 3, 5, 6}},
		{[]uint64{1, 2}, []uint64{1, 2}, []uint64{1, 2}},
	}
	for _, c := range cases {
		got := MergeWorkingSets(c.a, c.b)
		if len(got) != len(c.want) {
			t.Errorf("merge(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("merge(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
				break
			}
		}
	}
}

// FuzzWorkingSet feeds arbitrary bytes to the sidecar decoder. The
// decoder must never panic, never allocate beyond its input's implied
// bound, and anything it accepts must re-encode to a record that
// decodes to the same page set (the canonicalization property the
// content-addressed sidecar relies on).
func FuzzWorkingSet(f *testing.F) {
	for _, pages := range [][]uint64{nil, {4096}, {4096, 8192, 1 << 30}} {
		data, err := EncodeWorkingSet(pages)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("SEWS"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		pages, err := DecodeWorkingSet(data)
		if err != nil {
			return
		}
		re, err := EncodeWorkingSet(pages)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		again, err := DecodeWorkingSet(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if !reflect.DeepEqual(pages, again) {
			t.Fatalf("re-encode changed the page set: %v vs %v", pages, again)
		}
	})
}

// TestGraftWireMatchesSource: a diff installed on another machine's
// base must be indistinguishable from the snapshot it was exported
// from — same metadata, same deployed contents, same re-export bytes
// (lazy zero pages included).
func TestGraftWireMatchesSource(t *testing.T) {
	stA := mem.NewStore(0)
	_, childA := buildStack(t, stA)
	var wire bytes.Buffer
	if err := childA.Export(&wire); err != nil {
		t.Fatal(err)
	}

	stB := mem.NewStore(0)
	baseB, _ := buildStack(t, stB)
	diff, err := ImportBytes(wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	grafted, payload, err := GraftWire(wire.Bytes(), baseB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, diff.PayloadBytes) {
		t.Errorf("payload bytes differ: %d vs %d", len(payload), len(diff.PayloadBytes))
	}
	if grafted.Name() != childA.Name() || grafted.Registers() != childA.Registers() {
		t.Errorf("metadata differs: %q/%+v vs %q/%+v",
			grafted.Name(), grafted.Registers(), childA.Name(), childA.Registers())
	}
	if grafted.DiffPages() != childA.DiffPages() {
		t.Errorf("diff pages = %d, source has %d", grafted.DiffPages(), childA.DiffPages())
	}

	// Same bytes at every diff page and a shared base page.
	for _, va := range append([]uint64{3 * mem.PageSize}, diff.PageVAs...) {
		if got, want := loadPage(t, grafted, va), loadPage(t, childA, va); !bytes.Equal(got, want) {
			t.Fatalf("page %#x differs: %v vs %v", va, got, want)
		}
	}

	// Byte-identical re-export — the tier-integrity contract.
	var rewire bytes.Buffer
	if err := grafted.Export(&rewire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewire.Bytes(), wire.Bytes()) {
		t.Fatalf("GraftWire re-export differs from original wire: %d vs %d bytes",
			rewire.Len(), wire.Len())
	}
}

// loadPage deploys snap and reads the first bytes of the page at va.
func loadPage(t *testing.T, snap *Snapshot, va uint64) []byte {
	t.Helper()
	space, _, err := snap.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.ReleaseUC()
	defer space.Release()
	b := make([]byte, 16)
	space.Load(va, b)
	return b
}

// TestGraftWireRejectsBadWire mirrors the two-step path's validation.
func TestGraftWireRejectsBadWire(t *testing.T) {
	stA := mem.NewStore(0)
	_, childA := buildStack(t, stA)
	var wire bytes.Buffer
	if err := childA.Export(&wire); err != nil {
		t.Fatal(err)
	}
	stB := mem.NewStore(0)
	baseB, _ := buildStack(t, stB)

	if _, _, err := GraftWire(wire.Bytes(), nil); err == nil {
		t.Error("nil base accepted")
	}
	mut := append([]byte(nil), wire.Bytes()...)
	mut[len(mut)/2] ^= 0x80
	if _, _, err := GraftWire(mut, baseB); err == nil {
		t.Error("corrupt wire accepted")
	}
	for _, n := range []int{0, 8, len(wire.Bytes()) - 5} {
		if _, _, err := GraftWire(wire.Bytes()[:n], baseB); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Lineage mismatch: graft onto a base with another name.
	if _, _, err := GraftWire(wire.Bytes(), childA); err == nil {
		t.Error("wrong-lineage base accepted")
	}
	// A clean failure must not leak a half-built snapshot: the base is
	// still graftable.
	if snap, _, err := GraftWire(wire.Bytes(), baseB); err != nil {
		t.Fatalf("healthy graft after failures: %v", err)
	} else {
		snap.Delete()
	}
}

// TestPeekWireHeader: the header peek must agree with the full decode
// and share its validation.
func TestPeekWireHeader(t *testing.T) {
	stA := mem.NewStore(0)
	_, childA := buildStack(t, stA)
	var wire bytes.Buffer
	if err := childA.Export(&wire); err != nil {
		t.Fatal(err)
	}
	hdr, err := PeekWireHeader(wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	diff, err := ImportBytes(wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hdr, diff.Header) {
		t.Errorf("peeked header %+v != decoded header %+v", hdr, diff.Header)
	}
	mut := append([]byte(nil), wire.Bytes()...)
	mut[0] ^= 1
	if _, err := PeekWireHeader(mut); err == nil {
		t.Error("corrupt wire peeked successfully")
	}
}
