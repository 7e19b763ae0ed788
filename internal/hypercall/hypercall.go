// Package hypercall defines the narrow domain interface between a
// unikernel context and the trusted SEUSS kernel.
//
// The prototype's UCs run on Solo5/ukvm middleware, which "exposes only
// 12 system calls while the standard security of a Docker container
// gives access to over 300 Linux syscalls" (§5). Reproducing that
// interface matters for two reasons: it is the security argument of the
// paper, and it is the only channel through which guest software touches
// the host, so charging each crossing a fixed cost keeps the time model
// honest.
//
// The table carries one extension beyond Solo5's 12: Entropy, the
// host-provided randomness draw behind restore-time uniqueness
// (DESIGN.md §14). Clones deployed from one snapshot resume with
// byte-identical guest state, so any in-guest RNG would replay the same
// stream in every sibling; fresh host entropy at deploy is the only fix
// that does not widen the interface further.
package hypercall

import "time"

// number identifies one of the thirteen hypercalls.
type number int

// The hypercall table, mirroring Solo5's ukvm interface plus the
// Entropy extension.
const (
	numWallTime number = iota
	numPuts
	numPoll
	numBlkInfo
	numBlkRead
	numBlkWrite
	numNetInfo
	numNetRead
	numNetWrite
	numMemInfo
	numSetTLS
	numHalt
	NumEntropy

	// numCalls is the size of the hypercall table. The narrowness of
	// this interface — 13 entries: Solo5's 12 plus Entropy — is
	// asserted by tests; growing it is a deliberate act.
	numCalls
)

var names = [...]string{
	"walltime", "puts", "poll",
	"blkinfo", "blkread", "blkwrite",
	"netinfo", "netread", "netwrite",
	"meminfo", "settls", "halt",
	"entropy",
}

// String returns the hypercall's name.
func (n number) String() string {
	if n < 0 || int(n) >= len(names) {
		return "invalid"
	}
	return names[n]
}

// netInfo describes the guest's network identity. Every UC is
// configured with an identical IP and MAC address (§6 Networking),
// which is what lets snapshots be redeployed across time, cores, and —
// in future work — machines.
type netInfo struct {
	MAC [6]byte
	IP  [4]byte
	MTU int
}

// defaultNetInfo is the identity every UC shares.
var defaultNetInfo = netInfo{
	MAC: [6]byte{0x02, 0x5e, 0x55, 0x00, 0x00, 0x01},
	IP:  [4]byte{10, 0, 0, 2},
	MTU: 1500,
}

// Devices answers the calls a UC makes to learn its world, the same for
// every UC: the ramdisk's geometry, the memory limit and the shared
// network identity, with the boot handshake's SetTLS and Halt accepted
// and forgotten. The ramdisk's contents live in guest pages, so its
// block device stores nothing. Hosts embed it.
type Devices struct{}

// BlkInfo implements Host: a 64 MB ramdisk of 512-byte sectors.
func (Devices) BlkInfo() (int64, int) { return 64 << 20, 512 }

// BlkRead implements Host: every sector reads as zeros.
func (Devices) BlkRead(sector int64, buf []byte) error { clear(buf); return nil }

// BlkWrite implements Host.
func (Devices) BlkWrite(sector int64, buf []byte) error { return nil }

// NetInfo implements Host.
func (Devices) NetInfo() netInfo { return defaultNetInfo }

// MemInfo implements Host: a 512 MB guest.
func (Devices) MemInfo() int64 { return 512 << 20 }

// SetTLS implements Host.
func (Devices) SetTLS(base uint64) {}

// Halt implements Host.
func (Devices) Halt(status int) {}

// Host is the kernel side of the hypercall interface, and the only way
// a guest reaches the host: libos is its only caller. The SEUSS kernel
// (internal/core) gives every UC one; StubHost is the standalone one.
type Host interface {
	// WallTime returns nanoseconds since host boot.
	WallTime() time.Duration
	// Puts writes console output from the guest.
	Puts(s string)
	// Poll blocks the guest until I/O is ready or the timeout expires;
	// it returns true if I/O became ready.
	Poll(timeout time.Duration) bool
	// BlkInfo returns the ramdisk's size in bytes and its sector size.
	BlkInfo() (capacity int64, sectorSize int)
	// BlkRead reads one sector into buf.
	BlkRead(sector int64, buf []byte) error
	// BlkWrite writes one sector from buf.
	BlkWrite(sector int64, buf []byte) error
	// NetInfo returns the guest's network identity.
	NetInfo() netInfo
	// NetRead receives one frame, blocking in virtual time; ok=false
	// means nothing arrived. After a non-empty NetWrite it returns that
	// request's reply.
	NetRead() (frame []byte, ok bool)
	// NetWrite transmits one frame through the per-core network proxy.
	// An empty frame is traffic on the kernel's driver connection; a
	// non-empty one is an outbound request, "GET " and a URL (libos's
	// http.get).
	NetWrite(frame []byte) error
	// MemInfo returns the guest's memory limit in bytes.
	MemInfo() int64
	// SetTLS records the guest's thread-local storage base.
	SetTLS(base uint64)
	// Halt terminates the guest with an exit status.
	Halt(status int)
	// Entropy returns a fresh host randomness draw. The guest calls it
	// once per deploy to reseed its RNG, so clones restored from one
	// snapshot diverge instead of replaying a shared stream. Hosts must
	// keep this a pure arithmetic step (no syscall, no allocation): it
	// sits on the allocation-free deploy path.
	Entropy() uint64
}

// cpuSink receives the CPU-time cost of each domain crossing. Any
// environment with a ChargeCPU method (e.g. libos.Env) satisfies it
// directly — holding the sink as an interface instead of a bound method
// value keeps Counter construction allocation-free.
type cpuSink interface {
	ChargeCPU(d time.Duration)
}

// Counter wraps a Host and counts crossings per hypercall, charging the
// domain-crossing cost to a CPU-time sink. It is how the evaluation
// observes hypercall traffic and how the time model charges crossings.
type Counter struct {
	inner  Host
	counts [numCalls]int64
	sink   cpuSink
	cost   time.Duration
}

// NewCounter returns a counting, cost-charging wrapper around inner.
// sink may be nil (no time accounting, e.g. unit tests).
func NewCounter(inner Host, cost time.Duration, sink cpuSink) *Counter {
	return &Counter{inner: inner, cost: cost, sink: sink}
}

// Counts returns the per-hypercall crossing counts.
func (c *Counter) Counts() [numCalls]int64 { return c.counts }

// Total returns the total number of crossings.
func (c *Counter) Total() int64 {
	var t int64
	for _, n := range c.counts {
		t += n
	}
	return t
}

func (c *Counter) cross(n number) {
	c.counts[n]++
	if c.sink != nil {
		c.sink.ChargeCPU(c.cost)
	}
}

// WallTime implements Host.
func (c *Counter) WallTime() time.Duration { c.cross(numWallTime); return c.inner.WallTime() }

// Puts implements Host.
func (c *Counter) Puts(s string) { c.cross(numPuts); c.inner.Puts(s) }

// Poll implements Host.
func (c *Counter) Poll(timeout time.Duration) bool { c.cross(numPoll); return c.inner.Poll(timeout) }

// BlkInfo implements Host.
func (c *Counter) BlkInfo() (int64, int) { c.cross(numBlkInfo); return c.inner.BlkInfo() }

// BlkRead implements Host.
func (c *Counter) BlkRead(sector int64, buf []byte) error {
	c.cross(numBlkRead)
	return c.inner.BlkRead(sector, buf)
}

// BlkWrite implements Host.
func (c *Counter) BlkWrite(sector int64, buf []byte) error {
	c.cross(numBlkWrite)
	return c.inner.BlkWrite(sector, buf)
}

// NetInfo implements Host.
func (c *Counter) NetInfo() netInfo { c.cross(numNetInfo); return c.inner.NetInfo() }

// NetRead implements Host.
func (c *Counter) NetRead() ([]byte, bool) { c.cross(numNetRead); return c.inner.NetRead() }

// NetWrite implements Host.
func (c *Counter) NetWrite(frame []byte) error { c.cross(numNetWrite); return c.inner.NetWrite(frame) }

// MemInfo implements Host.
func (c *Counter) MemInfo() int64 { c.cross(numMemInfo); return c.inner.MemInfo() }

// SetTLS implements Host.
func (c *Counter) SetTLS(base uint64) { c.cross(numSetTLS); c.inner.SetTLS(base) }

// Halt implements Host.
func (c *Counter) Halt(status int) { c.cross(numHalt); c.inner.Halt(status) }

// Entropy implements Host.
func (c *Counter) Entropy() uint64 { c.cross(NumEntropy); return c.inner.Entropy() }

var _ Host = (*Counter)(nil)
