package netsim

import (
	"testing"

	"seuss/internal/sim"
)

func TestProxyInternalMapping(t *testing.T) {
	p := NewProxy(16)
	port, err := p.MapInternal(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := p.RouteInbound(port)
	if err != nil {
		t.Fatal(err)
	}
	if ep.UCID != 42 || ep.Core != 3 {
		t.Errorf("ep = %+v", ep)
	}
}

func TestProxyScreensUnmappedPorts(t *testing.T) {
	p := NewProxy(16)
	if _, err := p.RouteInbound(31337); err != errNoRoute {
		t.Errorf("err = %v", err)
	}
	if p.Screened() != 1 {
		t.Errorf("screened = %d", p.Screened())
	}
}

func TestProxyOutboundMasquerade(t *testing.T) {
	p := NewProxy(16)
	port, err := p.MapOutbound(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RouteOutbound(port); err != nil {
		t.Fatal(err)
	}
	// Replies on the masqueraded flow route back in.
	ep, err := p.RouteInbound(port)
	if err != nil || ep.UCID != 7 {
		t.Errorf("reply routing: %+v, %v", ep, err)
	}
}

func TestProxyPortsUnique(t *testing.T) {
	p := NewProxy(16)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		port, err := p.MapInternal(uint64(i), i%16)
		if err != nil {
			t.Fatal(err)
		}
		if seen[port] {
			t.Fatalf("port %d reused", port)
		}
		seen[port] = true
	}
	in, out := p.Mappings()
	if in != 1000 || out != 0 {
		t.Errorf("mappings = %d, %d", in, out)
	}
}

func TestProxyCoreRange(t *testing.T) {
	p := NewProxy(4)
	if _, err := p.MapInternal(1, 4); err == nil {
		t.Error("out-of-range core accepted")
	}
	if _, err := p.MapOutbound(1, -1); err == nil {
		t.Error("negative core accepted")
	}
}

func TestProxyUnmap(t *testing.T) {
	p := NewProxy(16)
	port, _ := p.MapInternal(1, 0)
	p.Unmap(port)
	if _, err := p.RouteInbound(port); err != errNoRoute {
		t.Error("mapping survived unmap")
	}
}

func TestProxyUnmapUC(t *testing.T) {
	p := NewProxy(16)
	p1, _ := p.MapInternal(9, 0)
	p2, _ := p.MapOutbound(9, 0)
	p3, _ := p.MapInternal(10, 0)
	p.UnmapUC(9)
	if _, err := p.RouteInbound(p1); err == nil {
		t.Error("internal mapping survived")
	}
	if _, err := p.RouteOutbound(p2); err == nil {
		t.Error("external mapping survived")
	}
	if _, err := p.RouteInbound(p3); err != nil {
		t.Error("other UC's mapping removed")
	}
}

func TestBridgeLoadGrowsQuadratically(t *testing.T) {
	b := NewBridge(sim.NewRNG(1))
	for i := 0; i < 100; i++ {
		b.Attach()
	}
	l100 := b.broadcastLoad()
	for i := 0; i < 100; i++ {
		b.Attach()
	}
	l200 := b.broadcastLoad()
	ratio := l200 / l100
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("load ratio for 2x endpoints = %.2f, want ≈4 (O(N²))", ratio)
	}
}

func TestBridgeNoDropsBelowDefaultLimit(t *testing.T) {
	// §7: 1024 is the default limit of endpoints on a Linux bridge;
	// below ~1000 endpoints connections are reliable.
	b := NewBridge(sim.NewRNG(1))
	for i := 0; i < 900; i++ {
		b.Attach()
	}
	if p := b.DropProbability(); p != 0 {
		t.Errorf("drop probability at 900 endpoints = %v", p)
	}
	for i := 0; i < 1000; i++ {
		if !b.Connect() {
			t.Fatal("drop below threshold")
		}
	}
}

func TestBridgeDropsAboveLimit(t *testing.T) {
	b := NewBridge(sim.NewRNG(1))
	for i := 0; i < 1100; i++ {
		b.Attach()
	}
	if p := b.DropProbability(); p <= 0 {
		t.Error("no drops just above the bridge limit")
	}
	// At 3000 endpoints (the observed container density limit) the
	// bridge is unusable.
	for i := 0; i < 1900; i++ {
		b.Attach()
	}
	if p := b.DropProbability(); p < 0.9 {
		t.Errorf("drop probability at 3000 endpoints = %v, want near 1", p)
	}
	drops := 0
	for i := 0; i < 1000; i++ {
		if !b.Connect() {
			drops++
		}
	}
	if drops < 800 {
		t.Errorf("only %d/1000 drops at 3000 endpoints", drops)
	}
	attempts, dropped := b.Stats()
	if attempts != 1000 || int(dropped) != drops {
		t.Errorf("stats = %d, %d", attempts, dropped)
	}
}

func TestBridgeDetach(t *testing.T) {
	b := NewBridge(sim.NewRNG(1))
	b.Attach()
	b.Attach()
	b.Detach()
	if b.Endpoints() != 1 {
		t.Errorf("endpoints = %d", b.Endpoints())
	}
	b.Detach()
	b.Detach() // extra detach is harmless
	if b.Endpoints() != 0 {
		t.Errorf("endpoints = %d", b.Endpoints())
	}
}

func TestBridgeDeterministicDrops(t *testing.T) {
	run := func() []bool {
		b := NewBridge(sim.NewRNG(99))
		for i := 0; i < 1200; i++ {
			b.Attach()
		}
		var out []bool
		for i := 0; i < 100; i++ {
			out = append(out, b.Connect())
		}
		return out
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatal("bridge drops nondeterministic under fixed seed")
		}
	}
}

func TestInboundInitiatedConnectionsRejected(t *testing.T) {
	// §6: only outgoing TCP connections initiated from within the
	// unikernel are supported; externally initiated ones are screened.
	p := NewProxy(16)
	port, _ := p.MapInternal(1, 0)
	if err := p.InboundConnect(port); err != ErrUnsupported {
		t.Errorf("err = %v", err)
	}
	if p.Screened() != 1 {
		t.Errorf("screened = %d", p.Screened())
	}
}
