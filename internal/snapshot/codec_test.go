package snapshot

import (
	"bytes"
	"testing"
	"testing/quick"

	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

// buildStack creates a base snapshot (8 content pages) plus a child
// snapshot diffing 3 pages on top of it.
func buildStack(t *testing.T, st *mem.Store) (base, child *Snapshot) {
	t.Helper()
	boot, err := pagetable.New(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		boot.Store(uint64(i)*mem.PageSize, []byte{0xB0, byte(i)})
	}
	base, err = Capture("runtime/nodejs", nil, boot, Registers{PC: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	space, _, err := base.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	space.Store(2*mem.PageSize, []byte("function code"))     // CoW over base
	space.Store(100*mem.PageSize, []byte("fresh heap page")) // new page
	space.Touch(200 * mem.PageSize)                          // zero page
	child, err = Capture("fn/foo", base, space, Registers{PC: 0x2b80, SP: 0x7fff})
	if err != nil {
		t.Fatal(err)
	}
	return base, child
}

func TestExportImportRoundTrip(t *testing.T) {
	st := mem.NewStore(0)
	base, child := buildStack(t, st)

	var buf bytes.Buffer
	if err := child.Export(&buf); err != nil {
		t.Fatal(err)
	}
	diff, err := ImportBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if diff.Header.Name != "fn/foo" || diff.Header.BaseName != "runtime/nodejs" {
		t.Errorf("header = %+v", diff.Header)
	}
	if diff.Header.Regs.PC != 0x2b80 || diff.Header.Regs.SP != 0x7fff {
		t.Errorf("regs = %+v", diff.Header.Regs)
	}
	if diff.Header.Pages != 3 {
		t.Errorf("pages = %d, want 3 (the diff only)", diff.Header.Pages)
	}
	if string(bytes.TrimRight(diff.Contents[2*mem.PageSize][:13], "\x00")) != "function code" {
		t.Error("content page lost")
	}
	if _, hasZero := diff.Contents[200*mem.PageSize]; hasZero {
		t.Error("zero page shipped content")
	}
	_ = base
}

func TestGraftReproducesSnapshot(t *testing.T) {
	// Export from "machine A", graft onto "machine B"'s own base image.
	stA := mem.NewStore(0)
	_, childA := buildStack(t, stA)
	var wire bytes.Buffer
	if err := childA.Export(&wire); err != nil {
		t.Fatal(err)
	}

	stB := mem.NewStore(0)
	baseB, _ := buildStack(t, stB)
	grafted, _, err := GraftWire(wire.Bytes(), baseB)
	if err != nil {
		t.Fatal(err)
	}
	if grafted.Base() != baseB {
		t.Error("graft not stacked on local base")
	}
	if grafted.Name() != childA.Name() || grafted.Registers() != childA.Registers() {
		t.Errorf("graft is %q/%+v, source was %q/%+v",
			grafted.Name(), grafted.Registers(), childA.Name(), childA.Registers())
	}

	// A UC deployed from the graft sees both the local base pages and
	// the migrated diff pages.
	space, regs, err := grafted.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if regs.PC != 0x2b80 {
		t.Error("deploy regs wrong")
	}
	b := make([]byte, 13)
	space.Load(2*mem.PageSize, b)
	if string(b) != "function code" {
		t.Errorf("diff page = %q", b)
	}
	b2 := make([]byte, 2)
	space.Load(3*mem.PageSize, b2)
	if b2[0] != 0xB0 || b2[1] != 3 {
		t.Errorf("base page = %v", b2)
	}
}

func TestGraftRejectsWrongLineage(t *testing.T) {
	stA := mem.NewStore(0)
	_, childA := buildStack(t, stA)
	var wire bytes.Buffer
	if err := childA.Export(&wire); err != nil {
		t.Fatal(err)
	}

	// A base with a different name (different interpreter image).
	stB := mem.NewStore(0)
	boot, _ := pagetable.New(stB)
	boot.Store(0, []byte{1})
	otherBase, _ := Capture("runtime/python", nil, boot, Registers{})
	if _, _, err := GraftWire(wire.Bytes(), otherBase); err == nil {
		t.Fatal("graft onto mismatched base succeeded")
	}
	if _, _, err := GraftWire(wire.Bytes(), nil); err == nil {
		t.Fatal("graft onto nil base succeeded")
	}
}

func TestImportRejectsCorruption(t *testing.T) {
	st := mem.NewStore(0)
	_, child := buildStack(t, st)
	var wire bytes.Buffer
	child.Export(&wire)
	raw := wire.Bytes()

	// Flip a byte in the middle: checksum must catch it.
	corrupted := make([]byte, len(raw))
	copy(corrupted, raw)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := ImportBytes(corrupted); err == nil {
		t.Error("corruption accepted")
	}

	// Truncation.
	if _, err := ImportBytes(raw[:len(raw)/2]); err == nil {
		t.Error("truncation accepted")
	}
	// Garbage.
	if _, err := ImportBytes([]byte("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	// Empty.
	if _, err := ImportBytes(nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestExportDeletedSnapshotFails(t *testing.T) {
	st := mem.NewStore(0)
	boot, _ := pagetable.New(st)
	boot.Store(0, []byte{1})
	s, _ := Capture("s", nil, boot, Registers{})
	boot.Release()
	if err := s.Delete(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Export(&buf); err == nil {
		t.Error("export of deleted snapshot succeeded")
	}
}

func TestRootSnapshotExport(t *testing.T) {
	// A root snapshot's diff is its whole image.
	st := mem.NewStore(0)
	base, _ := buildStack(t, st)
	var buf bytes.Buffer
	if err := base.Export(&buf); err != nil {
		t.Fatal(err)
	}
	diff, err := ImportBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if diff.Header.BaseName != "" {
		t.Errorf("base name = %q", diff.Header.BaseName)
	}
	if diff.Header.Pages != 8 {
		t.Errorf("pages = %d, want the full 8-page image", diff.Header.Pages)
	}
}

// Property: any randomly generated diff round-trips through the codec
// byte-for-byte (names, registers, page set, contents).
func TestQuickCodecRoundTrip(t *testing.T) {
	prop := func(pageSel []uint16, content []byte, pcSeed uint64) bool {
		st := mem.NewStore(0)
		boot, err := pagetable.New(st)
		if err != nil {
			return false
		}
		boot.Store(0, []byte{1}) // base has one page
		base, err := Capture("runtime/x", nil, boot, Registers{})
		if err != nil {
			return false
		}
		space, _, err := base.Deploy()
		if err != nil {
			return false
		}
		written := map[uint64][]byte{}
		for i, sel := range pageSel {
			va := (uint64(sel%512) + 1) * mem.PageSize
			if i%3 == 0 || len(content) == 0 {
				space.Touch(va)
				if _, ok := written[va]; !ok {
					written[va] = nil
				}
			} else {
				b := content[i%len(content)]
				space.Store(va, []byte{b})
				written[va] = []byte{b}
			}
		}
		snap, err := Capture("fn/q", base, space, Registers{PC: pcSeed})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := snap.Export(&buf); err != nil {
			return false
		}
		diff, err := ImportBytes(buf.Bytes())
		if err != nil {
			return false
		}
		if diff.Header.Name != "fn/q" || diff.Header.Regs.PC != pcSeed {
			return false
		}
		if diff.Header.Pages != len(written) {
			return false
		}
		for va, want := range written {
			got, has := diff.Contents[va]
			if want == nil {
				// Touched-only pages may legitimately carry no content.
				if has && got[0] != 0 {
					return false
				}
				continue
			}
			if !has || got[0] != want[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
