package hypercall

import (
	"errors"
	"time"
)

// errNoNetwork refuses an outbound request on a host with no external
// network.
var errNoNetwork = errors.New("hypercall: no external network")

// StubHost is the standalone single-UC host: the one a UC gets when it
// is deployed with no host (the Tables 1–2 microbenchmarks and bench/
// measure one UC at a time). Its clock is stopped at zero and it has
// no external network: driver-connection frames loop back, an outbound
// request fails. The console, the ramdisk and the exit status are
// recorded for inspection.
type StubHost struct {
	Devices
	// Console accumulates Puts output.
	Console []string
	// Disk is the ramdisk contents, sector-indexed.
	Disk map[int64][]byte
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

// NewStubHost returns a StubHost with an empty ramdisk.
func NewStubHost() *StubHost {
	return &StubHost{Disk: make(map[int64][]byte), Halted: -1}
}

// WallTime implements Host.
func (h *StubHost) WallTime() time.Duration { return 0 }

// Puts implements Host.
func (h *StubHost) Puts(s string) { h.Console = append(h.Console, s) }

// Poll implements Host.
func (h *StubHost) Poll(timeout time.Duration) bool { return len(h.frames) > 0 }

// BlkRead implements Host.
func (h *StubHost) BlkRead(sector int64, buf []byte) error {
	if data, ok := h.Disk[sector]; ok {
		copy(buf, data)
		return nil
	}
	clear(buf)
	return nil
}

// BlkWrite implements Host.
func (h *StubHost) BlkWrite(sector int64, buf []byte) error {
	h.Disk[sector] = append([]byte(nil), buf...)
	return nil
}

// NetRead implements Host.
func (h *StubHost) NetRead() ([]byte, bool) {
	if len(h.frames) == 0 {
		return nil, false
	}
	f := h.frames[0]
	h.frames = h.frames[1:]
	return f, true
}

// NetWrite implements Host: a driver frame comes back on NetRead, an
// outbound request fails.
func (h *StubHost) NetWrite(frame []byte) error {
	if len(frame) > 0 {
		return errNoNetwork
	}
	h.frames = append(h.frames, nil)
	return nil
}

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
