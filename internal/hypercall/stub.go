package hypercall

import "time"

// StubHost is a self-contained Host for tests and standalone guests: a
// clock stopped at zero, an in-memory console, a small ramdisk, and a
// loopback network that delivers written frames back to NetRead.
type StubHost struct {
	// Console accumulates Puts output.
	Console []string
	// Disk is the ramdisk contents, sector-indexed.
	Disk       map[int64][]byte
	SectorSize int
	Capacity   int64
	// Mem is the reported guest memory limit.
	Mem int64
	// TLSBase records the last SetTLS.
	TLSBase uint64
	// Halted records the exit status passed to Halt, or -1.
	Halted int
	// EntropyState is the splitmix64 state behind Entropy. Zero by
	// default, so a fresh stub draws a deterministic stream — tests and
	// the simulation stay replayable; hosts wanting distinct streams
	// seed it before handing the stub to a guest.
	EntropyState uint64

	frames [][]byte
}

// NewStubHost returns a StubHost with a 64 MB ramdisk and 512 MB guest
// memory limit.
func NewStubHost() *StubHost {
	return &StubHost{
		Disk:       make(map[int64][]byte),
		SectorSize: 512,
		Capacity:   64 << 20,
		Mem:        512 << 20,
		Halted:     -1,
	}
}

// WallTime implements Host.
func (h *StubHost) WallTime() time.Duration { return 0 }

// Puts implements Host.
func (h *StubHost) Puts(s string) { h.Console = append(h.Console, s) }

// Poll implements Host.
func (h *StubHost) Poll(timeout time.Duration) bool { return len(h.frames) > 0 }

// BlkInfo implements Host.
func (h *StubHost) BlkInfo() (int64, int) { return h.Capacity, h.SectorSize }

// BlkRead implements Host.
func (h *StubHost) BlkRead(sector int64, buf []byte) error {
	if data, ok := h.Disk[sector]; ok {
		copy(buf, data)
		return nil
	}
	for i := range buf {
		buf[i] = 0
	}
	return nil
}

// BlkWrite implements Host.
func (h *StubHost) BlkWrite(sector int64, buf []byte) error {
	cp := make([]byte, len(buf))
	copy(cp, buf)
	h.Disk[sector] = cp
	return nil
}

// NetInfo implements Host.
func (h *StubHost) NetInfo() netInfo { return defaultNetInfo }

// NetRead implements Host.
func (h *StubHost) NetRead() ([]byte, bool) {
	if len(h.frames) == 0 {
		return nil, false
	}
	f := h.frames[0]
	h.frames = h.frames[1:]
	return f, true
}

// NetWrite implements Host (loopback: frames come back on NetRead).
func (h *StubHost) NetWrite(frame []byte) error {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	h.frames = append(h.frames, cp)
	return nil
}

// MemInfo implements Host.
func (h *StubHost) MemInfo() int64 { return h.Mem }

// SetTLS implements Host.
func (h *StubHost) SetTLS(base uint64) { h.TLSBase = base }

// Halt implements Host.
func (h *StubHost) Halt(status int) { h.Halted = status }

// Entropy implements Host: a splitmix64 step over EntropyState. Pure
// arithmetic, so the draw neither allocates nor makes a syscall.
func (h *StubHost) Entropy() uint64 {
	h.EntropyState += 0x9E3779B97F4A7C15
	x := h.EntropyState
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

var _ Host = (*StubHost)(nil)
