package snapshot

// Working-set sidecar wire format — the per-lineage record of pages a
// lukewarm restore touched, persisted by the snapshot tier beside the
// stack it describes and replayed by later restores to turn the serial
// first-touch fault storm into one bulk mapping (REAP, arXiv
// 2101.09355; ROADMAP open item 1).
//
//	magic   [4]byte  "SEWS"
//	version uint16
//	count   uint32
//	pages   count * uvarint — page indices (va >> PageShift),
//	        delta-encoded: the first value is the index itself, each
//	        subsequent value is the strictly-positive increment over
//	        the previous index
//	crc32   uint32 over everything above (IEEE, little endian)
//
// The encoding is deterministic: the same page set always produces the
// same bytes, which is what lets the record live as a content-addressed
// sidecar (same digest ⇒ same file, untouched by re-demotions) and
// ship over the fabric unchanged.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

const wsMagic = "SEWS"
const wsVersion = 1

// wsHeaderLen is magic + version + count; wsMinLen adds the CRC.
const wsHeaderLen = 4 + 2 + 4
const wsMinLen = wsHeaderLen + 4

// maxWorkingSetPages bounds a decoded record: 2^20 pages is 4 GiB of
// touched memory, far beyond any UC working set. A hostile count is
// rejected before the allocation it implies.
const maxWorkingSetPages = 1 << 20

// maxPageIndex is one past the highest encodable page index (the
// 48-bit canonical space in pages).
const maxPageIndex = pagetable.MaxVirtual >> mem.PageShift

// EncodeWorkingSet serializes a working-set record. pages must be
// page-aligned page-base VAs, sorted strictly increasing — exactly the
// shape AddressSpace.DirtyPages returns.
func EncodeWorkingSet(pages []uint64) ([]byte, error) {
	if len(pages) > maxWorkingSetPages {
		return nil, fmt.Errorf("%w: working set of %d pages exceeds limit", errCodec, len(pages))
	}
	buf := make([]byte, 0, wsMinLen+len(pages)*2)
	buf = append(buf, wsMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, wsVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pages)))
	prev := uint64(0)
	for i, va := range pages {
		if va%mem.PageSize != 0 {
			return nil, fmt.Errorf("%w: working-set page %#x not page-aligned", errCodec, va)
		}
		idx := va >> mem.PageShift
		if idx >= maxPageIndex {
			return nil, fmt.Errorf("%w: working-set page %#x out of range", errCodec, va)
		}
		delta := idx
		if i > 0 {
			if idx <= prev {
				return nil, fmt.Errorf("%w: working-set pages not strictly increasing at %#x", errCodec, va)
			}
			delta = idx - prev
		}
		buf = binary.AppendUvarint(buf, delta)
		prev = idx
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// DecodeWorkingSet parses a working-set record back into sorted
// page-base VAs. Like the snapshot decoder, it never panics and never
// allocates proportionally more than its input: the checksum is
// verified first, and a count the body cannot hold is rejected before
// the slice it implies.
func DecodeWorkingSet(data []byte) ([]uint64, error) {
	if len(data) < wsMinLen {
		return nil, fmt.Errorf("%w: working set truncated", errCodec)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: working set checksum mismatch", errCodec)
	}
	if string(body[:4]) != wsMagic {
		return nil, fmt.Errorf("%w: bad working-set magic %q", errCodec, body[:4])
	}
	if v := binary.LittleEndian.Uint16(body[4:6]); v != wsVersion {
		return nil, fmt.Errorf("%w: unsupported working-set version %d", errCodec, v)
	}
	count := binary.LittleEndian.Uint32(body[6:wsHeaderLen])
	rest := body[wsHeaderLen:]
	// Each index costs at least one uvarint byte.
	if count > maxWorkingSetPages || int64(count) > int64(len(rest)) {
		return nil, fmt.Errorf("%w: working-set count %d exceeds body", errCodec, count)
	}
	pages := make([]uint64, 0, count)
	prev := uint64(0)
	for i := uint32(0); i < count; i++ {
		delta, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: working-set index %d truncated", errCodec, i)
		}
		rest = rest[n:]
		idx := delta
		if i > 0 {
			if delta == 0 {
				return nil, fmt.Errorf("%w: working-set indices not strictly increasing", errCodec)
			}
			idx = prev + delta
			if idx < prev { // overflow
				return nil, fmt.Errorf("%w: working-set index overflow", errCodec)
			}
		}
		if idx >= maxPageIndex {
			return nil, fmt.Errorf("%w: working-set index %d out of range", errCodec, idx)
		}
		pages = append(pages, idx<<mem.PageShift)
		prev = idx
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after working set", errCodec, len(rest))
	}
	return pages, nil
}

// MergeWorkingSets returns the sorted union of two page sets (each
// sorted strictly increasing) — the drift-merge rule: a record only
// ever grows, so a page observed once keeps being prefetched even if a
// later run skips it.
func MergeWorkingSets(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
