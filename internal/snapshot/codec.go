package snapshot

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

// Wire format for exported snapshot diffs — what DR-SEUSS ships across
// the fabric (§9: "the read-only and deploy-anywhere properties of
// unikernel snapshots suggest they can be cloned and deployed across
// machines with similar hardware profiles").
//
//	magic   [4]byte  "SEUS"
//	version uint16
//	flags   uint16   (bit 0: page has content; per-page, see below)
//	name    uint16-prefixed string
//	base    uint16-prefixed string ("" for root snapshots)
//	regs    8 * (3 + 14) bytes, little endian
//	payload uint32-prefixed opaque bytes (guest metadata; see below)
//	npages  uint32
//	pages   npages * { va uint64, has uint8, content [PageSize]byte if has }
//	crc32   uint32 over everything above
//
// Only the diff travels: the receiver grafts it onto its own base image
// (which must carry the same base name — "similar hardware profiles").
//
// The payload field carries the snapshot's opaque guest metadata when
// it implements encoding.BinaryMarshaler (uc.Payload does); on
// real hardware this state lives inside the shipped pages themselves.

const codecMagic = "SEUS"
const codecVersion = 1

// errCodec is wrapped by all decode failures.
var errCodec = errors.New("snapshot: codec")

// zeroPage supplies the zero bytes around a frame's written extent.
var zeroPage [mem.PageSize]byte

// crcWriter streams bytes to an io.Writer while folding them into a
// running CRC32 — the encode side never builds an intermediate copy of
// the image. Errors are sticky so the encoder can write unconditionally
// and check once.
type crcWriter struct {
	w   io.Writer
	crc uint32
	err error
}

func (c *crcWriter) write(b []byte) {
	if c.err != nil || len(b) == 0 {
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, b)
	_, c.err = c.w.Write(b)
}

// Export serializes the snapshot's diff relative to its base: its name,
// lineage, registers, and every dirty page (address plus content for
// materialized pages; zero pages travel as one byte).
//
// The encode is zero-copy: page bytes stream straight from the frames'
// live buffers into w with the CRC computed on the fly, instead of
// staging the whole image (plus a per-page scratch copy) in an
// intermediate buffer. The wire bytes are identical to the buffered
// encoder this replaces.
//
// The diff page set is reconstructed by comparing the snapshot's leaf
// frames against its base's: a page belongs to the diff iff the two
// spaces map different frames at that address.
func (s *Snapshot) Export(w io.Writer) error {
	if s.deleted {
		return fmt.Errorf("%w: export of deleted snapshot", errCodec)
	}
	cw := &crcWriter{w: w}
	var scratch [8]byte
	putU16 := func(v uint16) {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		cw.write(scratch[:2])
	}
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		cw.write(scratch[:4])
	}
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		cw.write(scratch[:8])
	}
	putString := func(str string) {
		putU16(uint16(len(str)))
		cw.write([]byte(str))
	}
	cw.write([]byte(codecMagic))
	putU16(codecVersion)
	putU16(0)
	putString(s.name)
	baseName := ""
	if s.base != nil {
		baseName = s.base.name
	}
	putString(baseName)
	putU64(s.regs.PC)
	putU64(s.regs.SP)
	putU64(s.regs.Flags)
	for _, g := range s.regs.GPR {
		putU64(g)
	}

	var payloadBytes []byte
	if bm, ok := s.payload.(encoding.BinaryMarshaler); ok {
		pb, err := bm.MarshalBinary()
		if err != nil {
			return fmt.Errorf("%w: payload: %v", errCodec, err)
		}
		payloadBytes = pb
	}
	putU32(uint32(len(payloadBytes)))
	cw.write(payloadBytes)

	pages := s.diffPageSet()
	putU32(uint32(len(pages)))
	st := s.space.Backing()
	for _, pg := range pages {
		putU64(pg.va)
		// Frame 0 is a lazy zero page (skipped at graft): wire-wise
		// identical to an unmaterialized frame, i.e. no content.
		if off, content, ok := st.Extent(pg.frame); ok {
			// A frame keeps only its written extent; the wire carries
			// the whole page, so the zeros around it are streamed too.
			scratch[0] = 1
			cw.write(scratch[:1])
			cw.write(zeroPage[:off])
			cw.write(content) // straight from the frame, no copy
			cw.write(zeroPage[off+len(content):])
		} else {
			scratch[0] = 0
			cw.write(scratch[:1])
		}
	}
	if cw.err != nil {
		return cw.err
	}
	binary.LittleEndian.PutUint32(scratch[:4], cw.crc)
	_, err := w.Write(scratch[:4])
	return err
}

type diffPage struct {
	va    uint64
	frame mem.Frame // 0 for a lazy zero page recorded in s.lazyZero
}

// diffPageSet walks the snapshot's space and its base's in parallel,
// collecting the pages whose frames differ without entering the table
// nodes the two still share, then merges in the lazy zero pages a
// sparse graft skipped — both lists are ascending, so the result is the
// exact page sequence of the original wire encoding.
func (s *Snapshot) diffPageSet() []diffPage {
	var baseSpace *pagetable.AddressSpace
	if s.base != nil {
		baseSpace = s.base.space
	}
	out := make([]diffPage, 0, s.diffPages)
	s.space.WalkDiff(baseSpace, func(va uint64, f mem.Frame) {
		out = append(out, diffPage{va: va, frame: f})
	})
	if len(s.lazyZero) == 0 {
		return out
	}
	merged := make([]diffPage, 0, len(out)+len(s.lazyZero))
	i, j := 0, 0
	for i < len(out) || j < len(s.lazyZero) {
		if j >= len(s.lazyZero) || (i < len(out) && out[i].va < s.lazyZero[j]) {
			merged = append(merged, out[i])
			i++
		} else {
			merged = append(merged, diffPage{va: s.lazyZero[j]})
			j++
		}
	}
	return merged
}

// ImportHeader is the decoded metadata of an exported diff.
type ImportHeader struct {
	Name     string
	BaseName string
	Regs     Registers
	Pages    int
}

// ImportedDiff is a decoded snapshot diff: what Materialize builds a
// root image from, and what the disk tier decodes a received layer into
// to validate it. Installing a diff onto a base does not stage one —
// GraftWire works straight from the wire bytes.
type ImportedDiff struct {
	Header ImportHeader
	// PayloadBytes is the opaque guest metadata shipped with the diff;
	// the receiver decodes it (uc.DecodePayload) and attaches it to the
	// materialized snapshot.
	PayloadBytes []byte
	// PageVAs lists the diff's page addresses.
	PageVAs []uint64
	// Contents maps page addresses to 4 KiB payloads (absent for zero
	// pages).
	Contents map[uint64][]byte
}

// importCursor is a bounds-checked offset reader over the encoded body;
// errors are sticky.
type importCursor struct {
	b   []byte
	off int
	bad bool
}

func (c *importCursor) take(n int) []byte {
	if c.bad || n < 0 || len(c.b)-c.off < n {
		c.bad = true
		return nil
	}
	out := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return out
}

func (c *importCursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *importCursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *importCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// ImportBytes decodes an exported diff without copying page contents:
// the returned diff's Contents (and PayloadBytes) alias subslices of
// raw. raw must remain live and unmodified for as long as the diff is
// in use — the usual pattern (shard hydration) decodes and immediately
// materializes into frames, which copies, so N shards hydrate from one
// wire image without N intermediate copies.
func ImportBytes(raw []byte) (*ImportedDiff, error) {
	cur, hdr, payload, npages, err := decodePreamble(raw)
	if err != nil {
		return nil, err
	}
	out := &ImportedDiff{Header: hdr, PayloadBytes: payload, Contents: make(map[uint64][]byte)}
	out.PageVAs = make([]uint64, 0, npages)
	for i := uint32(0); i < npages; i++ {
		va := cur.u64()
		has := cur.take(1)
		if cur.bad {
			return nil, fmt.Errorf("%w: page %d: truncated", errCodec, i)
		}
		out.PageVAs = append(out.PageVAs, va)
		if has[0] == 1 {
			content := cur.take(mem.PageSize)
			if cur.bad {
				return nil, fmt.Errorf("%w: page %d content: truncated", errCodec, i)
			}
			out.Contents[va] = content
		}
	}
	out.Header.Pages = len(out.PageVAs)
	return out, nil
}

// PeekWireHeader decodes an encoded diff's header — name, lineage,
// registers, page count — without touching its pages. The wire CRC is
// verified. Restore paths use it to resolve the graft base before
// handing the same bytes to GraftWire.
func PeekWireHeader(raw []byte) (ImportHeader, error) {
	_, hdr, _, _, err := decodePreamble(raw)
	return hdr, err
}

// decodePreamble validates raw's CRC and decodes everything up to (and
// including) the page count, leaving the cursor at the first page
// record. The returned payload aliases raw.
func decodePreamble(raw []byte) (*importCursor, ImportHeader, []byte, uint32, error) {
	var hdr ImportHeader
	if len(raw) < 12 {
		return nil, hdr, nil, 0, fmt.Errorf("%w: truncated", errCodec)
	}
	body, crcBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, hdr, nil, 0, fmt.Errorf("%w: checksum mismatch", errCodec)
	}
	cur := &importCursor{b: body}
	if magic := cur.take(4); magic == nil || string(magic) != codecMagic {
		return nil, hdr, nil, 0, fmt.Errorf("%w: bad magic %q", errCodec, magic)
	}
	version := cur.u16()
	cur.u16() // flags (reserved)
	if cur.bad {
		return nil, hdr, nil, 0, fmt.Errorf("%w: truncated header", errCodec)
	}
	if version != codecVersion {
		return nil, hdr, nil, 0, fmt.Errorf("%w: unsupported version %d", errCodec, version)
	}
	readString := func() string { return string(cur.take(int(cur.u16()))) }
	hdr.Name = readString()
	if cur.bad {
		return nil, hdr, nil, 0, fmt.Errorf("%w: name: truncated", errCodec)
	}
	hdr.BaseName = readString()
	if cur.bad {
		return nil, hdr, nil, 0, fmt.Errorf("%w: base: truncated", errCodec)
	}
	hdr.Regs.PC = cur.u64()
	hdr.Regs.SP = cur.u64()
	hdr.Regs.Flags = cur.u64()
	for i := range hdr.Regs.GPR {
		hdr.Regs.GPR[i] = cur.u64()
	}
	plen := cur.u32()
	if cur.bad {
		return nil, hdr, nil, 0, fmt.Errorf("%w: payload length: truncated", errCodec)
	}
	var payload []byte
	if plen > 0 {
		payload = cur.take(int(plen))
		if cur.bad {
			return nil, hdr, nil, 0, fmt.Errorf("%w: payload: truncated", errCodec)
		}
	}
	npages := cur.u32()
	if cur.bad {
		return nil, hdr, nil, 0, fmt.Errorf("%w: page count: truncated", errCodec)
	}
	// Each page costs at least 9 bytes on the wire; reject counts the
	// remaining body cannot possibly hold before allocating for them.
	if int64(npages)*9 > int64(len(body)-cur.off) {
		return nil, hdr, nil, 0, fmt.Errorf("%w: page count %d exceeds body", errCodec, npages)
	}
	hdr.Pages = int(npages)
	return cur, hdr, payload, npages, nil
}

// Materialize reconstructs a *root* snapshot (one exported with no
// base) inside st, backed entirely by fresh local frames. This is the
// hydration path of the sharded node pool: the base runtime image is
// booted and captured once, exported through the codec, and then
// materialized into each shard's private store — so anticipatory
// optimization and runtime boot are paid once per process, not once
// per shard.
//
// The caller is responsible for decoding and attaching the diff's
// guest payload (uc.DecodePayload); this package cannot, as the
// payload type lives above it.
func Materialize(diff *ImportedDiff, st *mem.Store) (*Snapshot, error) {
	if diff.Header.BaseName != "" {
		return nil, fmt.Errorf("%w: materialize of non-root diff %q (base %q); graft it instead",
			errCodec, diff.Header.Name, diff.Header.BaseName)
	}
	space, err := pagetable.New(st)
	if err != nil {
		return nil, fmt.Errorf("%w: materialize: %v", errCodec, err)
	}
	for _, va := range diff.PageVAs {
		if content, ok := diff.Contents[va]; ok {
			err = space.Store(va, content)
		} else {
			err = space.Touch(va)
		}
		if err != nil {
			space.Release()
			return nil, fmt.Errorf("%w: materialize page %#x: %v", errCodec, va, err)
		}
	}
	snap, err := Capture(diff.Header.Name, nil, space, diff.Header.Regs)
	if err != nil {
		space.Release()
		return nil, err
	}
	// The staging space served its purpose; the snapshot holds its own
	// references now.
	space.Release()
	return snap, nil
}

// GraftWire installs an encoded diff on top of a local base snapshot,
// producing a snapshot equivalent to the exported one (same name,
// registers, page contents, and re-export bytes) but backed by local
// frames. The base's name must match the diff's recorded lineage. It is
// one pass over raw: each page is installed as a read-only CoW mapping
// over a fresh private frame as it is decoded — or skipped and
// remembered in lazyZero when the fault path already yields the same
// zeros — and the deployed space itself is frozen into the snapshot, so
// the cost is O(diff), not O(image). The second return value is the
// diff's opaque payload bytes (aliasing raw; decode with
// uc.DecodePayload and attach via SetPayload).
//
// This is the only diff installer: a lukewarm promote, a boot prewarm
// and a fabric fetch all decode straight from the snapstore read buffer
// into page-table state through it.
func GraftWire(raw []byte, base *Snapshot) (*Snapshot, []byte, error) {
	if base == nil {
		return nil, nil, fmt.Errorf("%w: graft requires a base", errCodec)
	}
	cur, hdr, payload, npages, err := decodePreamble(raw)
	if err != nil {
		return nil, nil, err
	}
	if base.name != hdr.BaseName {
		return nil, nil, fmt.Errorf("%w: base %q does not match diff lineage %q",
			errCodec, base.name, hdr.BaseName)
	}
	space, _, err := base.Deploy()
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Snapshot, []byte, error) {
		space.Release()
		base.ReleaseUC()
		return nil, nil, err
	}
	si := space.NewSparseInstaller(int(npages))
	for i := uint32(0); i < npages; i++ {
		va := cur.u64()
		has := cur.take(1)
		if cur.bad {
			return fail(fmt.Errorf("%w: page %d: truncated", errCodec, i))
		}
		var content []byte
		if has[0] == 1 {
			content = cur.take(mem.PageSize)
			if cur.bad {
				return fail(fmt.Errorf("%w: page %d content: truncated", errCodec, i))
			}
		}
		if err := si.Page(va, content); err != nil {
			return fail(err)
		}
	}
	space.Freeze()
	snap := &Snapshot{
		name:      hdr.Name,
		base:      base,
		space:     space,
		regs:      hdr.Regs,
		diffPages: int(npages),
		lazyZero:  si.Lazy(),
	}
	base.children++
	base.ReleaseUC()
	return snap, payload, nil
}
