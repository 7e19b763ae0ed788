package snapshot

import (
	"bytes"
	"encoding/binary"
	"testing"

	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

// fuzzSeedImage builds a small but representative snapshot stack and
// returns the child diff's encoded bytes — the well-formed corpus seed
// every mutation starts from.
func fuzzSeedImage(f *testing.F) []byte {
	f.Helper()
	st := mem.NewStore(0)
	boot, err := pagetable.New(st)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		boot.Store(uint64(i)*mem.PageSize, []byte{0xB0, byte(i)})
	}
	base, err := Capture("runtime/nodejs", nil, boot, Registers{PC: 0x1000})
	if err != nil {
		f.Fatal(err)
	}
	space, _, err := base.Deploy()
	if err != nil {
		f.Fatal(err)
	}
	space.Store(2*mem.PageSize, []byte("function code"))
	space.Touch(64 * mem.PageSize) // zero page: travels as one byte
	child, err := Capture("fn/fuzz", base, space, Registers{PC: 0x2b80, SP: 0x7fff})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := child.Export(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzImport feeds arbitrary bytes to the snapshot decoder. The
// contract under fuzzing: ImportBytes never panics, never allocates
// proportionally more than its input (a hostile page count or payload
// length must be rejected before the allocation it implies), and
// returns a structurally consistent diff whenever it accepts.
func FuzzImport(f *testing.F) {
	seed := fuzzSeedImage(f)
	f.Add(seed)

	// Truncations at interesting boundaries.
	for _, n := range []int{0, 1, 4, 11, 12, len(seed) / 2, len(seed) - 5, len(seed) - 1} {
		if n >= 0 && n <= len(seed) {
			f.Add(seed[:n])
		}
	}
	// Bit flips in the header, the body, and the trailing CRC.
	for _, pos := range []int{0, 5, len(seed) / 2, len(seed) - 2} {
		flipped := append([]byte(nil), seed...)
		flipped[pos] ^= 0x80
		f.Add(flipped)
	}
	// Oversized length fields: a page count and a payload length far
	// beyond what the body holds (CRC fixed up so the length check, not
	// the checksum, is what trips).
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge[len(huge)-8:], 0xFFFFFFFF)
	f.Add(withFixedCRC(huge))
	f.Add([]byte("SEUS\x01\x00\x00\x00\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		diff, err := ImportBytes(data)
		if err != nil {
			if diff != nil {
				t.Fatalf("error %v returned a non-nil diff", err)
			}
			return
		}
		// Accepted: the diff must be internally consistent and bounded
		// by the input that produced it.
		if diff.Header.Pages != len(diff.PageVAs) {
			t.Fatalf("header pages %d != %d decoded", diff.Header.Pages, len(diff.PageVAs))
		}
		if got, max := len(diff.PageVAs), len(data)/9+1; got > max {
			t.Fatalf("decoded %d pages from %d bytes (max %d): over-allocation", got, len(data), max)
		}
		if len(diff.PayloadBytes) > len(data) {
			t.Fatalf("payload %d bytes from %d input bytes", len(diff.PayloadBytes), len(data))
		}
		for va, content := range diff.Contents {
			if len(content) != mem.PageSize {
				t.Fatalf("page %#x content is %d bytes", va, len(content))
			}
		}
	})
}

// withFixedCRC recomputes and replaces the trailing CRC32 so mutated
// bodies pass the checksum and reach the structural checks.
func withFixedCRC(raw []byte) []byte {
	if len(raw) < 4 {
		return raw
	}
	out := append([]byte(nil), raw...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crcOf(body))
	return out
}

// crcOf is the codec's checksum over an encoded body.
func crcOf(body []byte) uint32 {
	w := &crcWriter{w: discardWriter{}}
	w.write(body)
	return w.crc
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
