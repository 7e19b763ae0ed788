package uc

// Payload wire format ("SEUP"). The payload's shape is small and
// fixed, so a direct little-endian layout decodes in well under a
// microsecond — a reflective encoding would cost a third of the whole
// lukewarm restore:
//
//	magic    [4]byte "SEUP"
//	version  uint16
//	heapBrk  uint64
//	lflags   uint8   (bit 0 NetWarm, 1 NetAO, 2 Booted)
//	iflags   uint8   (bit 0 InterpWarm, 1 InterpAO, 2 DriverStarted)
//	runtime  uint16-prefixed string
//	source   uint32-prefixed string (the imported user function)
//	requests uint64
//	diffPgs  uint64
//	nfiles   uint32; nfiles * { path uint16-str, size uint64 }
//	naddrs   uint32; naddrs * { path uint16-str, addr uint64 }
//
// The ramdisk maps are flattened in sorted path order: identical
// payloads marshal to identical bytes, which the content-addressed
// snapshot tier (and the working-set sidecar keyed off the same digest)
// depends on. Bytes without the magic are a decode error; a tier entry
// carrying them can never promote and its function is served cold.

import (
	"encoding/binary"
	"fmt"
)

const payloadMagic = "SEUP"
const payloadVersion = 1

// MarshalBinary implements encoding.BinaryMarshaler so the snapshot
// codec can ship guest metadata alongside the page diff (on real
// hardware this state lives inside the pages). The encoding is
// deterministic: identical payloads marshal to identical bytes.
func (pl Payload) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64+len(pl.Interp.ImportedSource))
	buf = append(buf, payloadMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, payloadVersion)
	buf = binary.LittleEndian.AppendUint64(buf, pl.Libos.HeapBrk)
	buf = append(buf, packBits(pl.Libos.NetWarm, pl.Libos.NetAO, pl.Libos.Booted))
	buf = append(buf, packBits(pl.Interp.InterpWarm, pl.Interp.InterpAO, pl.Interp.DriverStarted))
	var err error
	if buf, err = appendString16(buf, pl.Interp.Runtime); err != nil {
		return nil, err
	}
	if len(pl.Interp.ImportedSource) > 1<<30 {
		return nil, fmt.Errorf("uc: payload: source too large")
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pl.Interp.ImportedSource)))
	buf = append(buf, pl.Interp.ImportedSource...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pl.Interp.Requests))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pl.Interp.DeployedDiffPages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pl.Libos.Files)))
	for _, path := range sortedKeys(pl.Libos.Files) {
		if buf, err = appendString16(buf, path); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pl.Libos.Files[path]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pl.Libos.FileAddrs)))
	for _, path := range sortedKeys(pl.Libos.FileAddrs) {
		if buf, err = appendString16(buf, path); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint64(buf, pl.Libos.FileAddrs[path])
	}
	return buf, nil
}

func packBits(bits ...bool) byte {
	var b byte
	for i, v := range bits {
		if v {
			b |= 1 << i
		}
	}
	return b
}

func appendString16(buf []byte, s string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return nil, fmt.Errorf("uc: payload: string too large")
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...), nil
}

// payloadCursor is a bounds-checked reader over the encoded payload;
// errors are sticky, mirroring the snapshot codec's import cursor.
type payloadCursor struct {
	b   []byte
	off int
	bad bool
}

func (c *payloadCursor) take(n int) []byte {
	if c.bad || n < 0 || len(c.b)-c.off < n {
		c.bad = true
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *payloadCursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *payloadCursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *payloadCursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *payloadCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *payloadCursor) str16() string { return string(c.take(int(c.u16()))) }

// DecodePayload reverses Payload.MarshalBinary.
func DecodePayload(data []byte) (Payload, error) {
	if len(data) < 4 || string(data[:4]) != payloadMagic {
		return Payload{}, fmt.Errorf("uc: payload: bad magic")
	}
	cur := &payloadCursor{b: data, off: 4}
	if v := cur.u16(); v != payloadVersion {
		return Payload{}, fmt.Errorf("uc: payload: unsupported version %d", v)
	}
	var pl Payload
	pl.Libos.HeapBrk = cur.u64()
	lf := cur.u8()
	pl.Libos.NetWarm, pl.Libos.NetAO, pl.Libos.Booted = lf&1 != 0, lf&2 != 0, lf&4 != 0
	inf := cur.u8()
	pl.Interp.InterpWarm, pl.Interp.InterpAO, pl.Interp.DriverStarted = inf&1 != 0, inf&2 != 0, inf&4 != 0
	pl.Interp.Runtime = cur.str16()
	pl.Interp.ImportedSource = string(cur.take(int(cur.u32())))
	pl.Interp.Requests = int(cur.u64())
	pl.Interp.DeployedDiffPages = int(cur.u64())
	nfiles := cur.u32()
	if cur.bad || int64(nfiles)*10 > int64(len(data)-cur.off) {
		return Payload{}, fmt.Errorf("uc: payload: truncated")
	}
	if nfiles > 0 {
		pl.Libos.Files = make(map[string]int64, nfiles)
		for i := uint32(0); i < nfiles; i++ {
			path := cur.str16()
			pl.Libos.Files[path] = int64(cur.u64())
		}
	}
	naddrs := cur.u32()
	if cur.bad || int64(naddrs)*10 > int64(len(data)-cur.off) {
		return Payload{}, fmt.Errorf("uc: payload: truncated")
	}
	if naddrs > 0 {
		pl.Libos.FileAddrs = make(map[string]uint64, naddrs)
		for i := uint32(0); i < naddrs; i++ {
			path := cur.str16()
			pl.Libos.FileAddrs[path] = cur.u64()
		}
	}
	if cur.bad {
		return Payload{}, fmt.Errorf("uc: payload: truncated")
	}
	if cur.off != len(data) {
		return Payload{}, fmt.Errorf("uc: payload: %d trailing bytes", len(data)-cur.off)
	}
	return pl, nil
}
