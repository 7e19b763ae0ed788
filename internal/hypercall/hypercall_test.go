package hypercall

import (
	"testing"
	"time"
)

// chargeFunc adapts a plain function to cpuSink.
type chargeFunc func(d time.Duration)

// ChargeCPU implements cpuSink.
func (f chargeFunc) ChargeCPU(d time.Duration) { f(d) }

func TestInterfaceIsNarrow(t *testing.T) {
	// The security argument of §5: Solo5's 12 hypercalls vs >300 Linux
	// syscalls. Entropy (restore-time uniqueness, DESIGN.md §14) is the
	// one deliberate extension, making 13. Growing this number further
	// weakens the argument — it must be a conscious decision, not drift.
	if numCalls != 13 {
		t.Fatalf("hypercall table has %d entries, want 13 (Solo5's 12 + entropy)", numCalls)
	}
}

func TestNumberNames(t *testing.T) {
	if numWallTime.String() != "walltime" || numHalt.String() != "halt" || NumEntropy.String() != "entropy" {
		t.Error("names wrong")
	}
	if number(-1).String() != "invalid" || numCalls.String() != "invalid" {
		t.Error("out-of-range names")
	}
}

func TestCounterCountsAndCharges(t *testing.T) {
	stub := NewStubHost()
	var charged time.Duration
	c := NewCounter(stub, 300*time.Nanosecond, chargeFunc(func(d time.Duration) { charged += d }))
	c.Puts("hello")
	c.Puts("world")
	c.NetInfo()
	c.MemInfo()
	counts := c.Counts()
	if counts[numPuts] != 2 || counts[numNetInfo] != 1 || counts[numMemInfo] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if c.Total() != 4 {
		t.Errorf("total = %d", c.Total())
	}
	if charged != 4*300*time.Nanosecond {
		t.Errorf("charged = %v", charged)
	}
	if len(stub.Console) != 2 || stub.Console[0] != "hello" {
		t.Errorf("console = %v", stub.Console)
	}
}

func TestCounterNilCharge(t *testing.T) {
	c := NewCounter(NewStubHost(), time.Microsecond, nil)
	c.Halt(0) // must not panic
	if c.Counts()[numHalt] != 1 {
		t.Error("halt not counted")
	}
}

func TestStubDisk(t *testing.T) {
	h := NewStubHost()
	cap0, sec := h.BlkInfo()
	if cap0 <= 0 || sec != 512 {
		t.Errorf("BlkInfo = %d, %d", cap0, sec)
	}
	if err := h.BlkWrite(7, []byte("sector-data")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	if err := h.BlkRead(7, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "sector-data" {
		t.Errorf("read %q", buf)
	}
	// Unwritten sectors read as zeros.
	zero := make([]byte, 4)
	zero[0] = 0xff
	h.BlkRead(99, zero)
	if zero[0] != 0 {
		t.Error("unwritten sector nonzero")
	}
}

// TestStubNetworkLoopback: a driver-connection frame comes back on
// NetRead; an outbound request finds no external network.
func TestStubNetworkLoopback(t *testing.T) {
	h := NewStubHost()
	if h.Poll(0) {
		t.Error("poll true with no frames")
	}
	if err := h.NetWrite(nil); err != nil {
		t.Fatal(err)
	}
	if !h.Poll(0) {
		t.Error("poll false with pending frame")
	}
	if _, ok := h.NetRead(); !ok {
		t.Error("driver frame lost")
	}
	if _, ok := h.NetRead(); ok {
		t.Error("read from empty device")
	}
	if err := h.NetWrite([]byte("GET http://x/")); err == nil {
		t.Error("outbound request reached a network")
	}
	if h.Poll(0) {
		t.Error("refused request queued a frame")
	}
}

func TestDefaultNetIdentityShared(t *testing.T) {
	// Every UC has an identical IP and MAC (§6 Networking).
	a, b := NewStubHost(), NewStubHost()
	if a.NetInfo() != b.NetInfo() {
		t.Error("UC network identities differ")
	}
	if a.NetInfo().IP != [4]byte{10, 0, 0, 2} {
		t.Errorf("IP = %v", a.NetInfo().IP)
	}
}

func TestStubHalt(t *testing.T) {
	h := NewStubHost()
	if h.Halted != -1 {
		t.Error("initial halted state")
	}
	h.Halt(3)
	if h.Halted != 3 {
		t.Errorf("Halted = %d", h.Halted)
	}
}

func TestCounterCoversAllCalls(t *testing.T) {
	stub := NewStubHost()
	c := NewCounter(stub, 0, nil)
	c.WallTime()
	c.Puts("x")
	c.Poll(0)
	c.BlkInfo()
	c.BlkRead(0, make([]byte, 1))
	c.BlkWrite(0, []byte{1})
	c.NetInfo()
	c.NetWrite([]byte{1})
	c.NetRead()
	c.MemInfo()
	c.SetTLS(0x1000)
	c.Halt(0)
	c.Entropy()
	counts := c.Counts()
	for n := number(0); n < numCalls; n++ {
		if counts[n] != 1 {
			t.Errorf("%s crossed %d times, want 1", n, counts[n])
		}
	}
	if c.Total() != 13 {
		t.Errorf("total = %d", c.Total())
	}
	if stub.TLSBase != 0x1000 {
		t.Error("SetTLS not forwarded")
	}
	if c.WallTime() != 0 {
		t.Error("WallTime not forwarded")
	}
}

// TestStubEntropyDiverges: consecutive draws differ, the stream is
// deterministic from a given state, and distinctly seeded stubs
// produce distinct streams.
func TestStubEntropyDiverges(t *testing.T) {
	h := NewStubHost()
	a, b := h.Entropy(), h.Entropy()
	if a == b {
		t.Error("consecutive entropy draws identical")
	}
	replay := NewStubHost()
	if got := replay.Entropy(); got != a {
		t.Errorf("zero-state stub drew %#x, want the deterministic %#x", got, a)
	}
	seeded := NewStubHost()
	seeded.EntropyState = 0xDEAD
	if got := seeded.Entropy(); got == a {
		t.Error("distinctly seeded stub replayed the default stream")
	}
}
