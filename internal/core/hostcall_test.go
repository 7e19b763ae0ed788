package core

import (
	"errors"
	"testing"
	"time"

	"seuss/internal/fault"
	"seuss/internal/hypercall"
)

// svcSource uses every host service a guest has, once each: the
// clock, the console, a sleep and an outbound request.
const svcSource = `function main(a) { var t = Date.now(); console.log("x"); sleep(1); return {t: t, body: http.get("http://ext/")}; }`

// pathCrossings serves src on every path in turn — cold, hot, warm,
// lukewarm — and returns, per path, the hypercalls the serving UC made
// for that request.
func pathCrossings(t *testing.T, src string) map[Path][13]int64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SnapStore = newTierStore(t, -1)
	cfg.HTTPHandler = func(string) (string, time.Duration, error) { return "pong", 0, nil }
	n, eng := newTestNode(t, cfg)
	req := Request{Key: "svc/fn", Source: src, Args: "{}"}
	served := func() [13]int64 { return n.idle[req.Key][0].mu.u.Hypercalls().Counts() }
	out := map[Path][13]int64{}
	for _, path := range []Path{PathCold, PathHot, PathWarm, PathLukewarm} {
		var before [13]int64
		switch path {
		case PathHot:
			before = served()
		case PathWarm:
			n.reclaimAll(nil)
		case PathLukewarm:
			n.dropSnapshot(nil, req.Key)
		}
		if res, err := invoke(t, n, eng, req); err != nil || res.Path != path {
			t.Fatalf("served %v (%v), want %v", res.Path, err, path)
		}
		c := served()
		for i := range c {
			c[i] -= before[i]
		}
		out[path] = c
	}
	return out
}

// TestGuestServicesCrossTheTable: Date.now, console.log, sleep and
// http.get reach the host through the hypercall table — one WallTime,
// Puts, Poll, NetWrite and NetRead more than a NOP, on every path.
func TestGuestServicesCrossTheTable(t *testing.T) {
	want := hypercall.NewCounter(hypercall.NewStubHost(), 0, nil)
	want.WallTime()
	want.Puts("")
	want.Poll(0)
	want.NetWrite(nil)
	want.NetRead()
	nop, svc := pathCrossings(t, nopSource), pathCrossings(t, svcSource)
	for _, path := range []Path{PathCold, PathHot, PathWarm, PathLukewarm} {
		var delta [13]int64
		for i := range delta {
			delta[i] = svc[path][i] - nop[path][i]
		}
		if delta != want.Counts() {
			t.Errorf("%v: the services crossed %v more than a NOP, want %v", path, delta, want.Counts())
		}
		t.Logf("%v: a NOP crosses %v", path, nop[path])
	}
}

// TestGuestTrafficRoutesThroughProxy: the driver connection's frames
// and a guest's http.get both cross the UC's per-core proxy. The
// request is one outbound packet and the reply one inbound, on a
// masquerade mapping that belongs to the UC and is gone once the call
// returns, whether it succeeded, failed or had its packet dropped.
func TestGuestTrafficRoutesThroughProxy(t *testing.T) {
	var (
		n          *Node
		handlerErr error
		owner      uint64 // when set, the handler checks the flow dies with this UC
		flows      = -1
		orphans    = -1
	)
	cfg := DefaultConfig()
	cfg.Faults = fault.New(fault.Config{Schedule: map[fault.Point][]uint64{fault.PointProxyDrop: {3}}})
	cfg.HTTPHandler = func(string) (string, time.Duration, error) {
		if owner != 0 {
			_, flows = n.proxy.Mappings()
			n.proxy.UnmapUC(owner)
			_, orphans = n.proxy.Mappings()
		}
		return "pong", 0, handlerErr
	}
	n, eng := newTestNode(t, cfg)
	traffic := func(req Request) (in, out int64) {
		t.Helper()
		in0, out0 := n.proxy.Traffic()
		res, err := invoke(t, n, eng, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, ext := n.proxy.Mappings(); ext != 0 {
			t.Errorf("%s (%v) left %d external mappings", req.Key, res.Path, ext)
		}
		in, out = n.proxy.Traffic()
		return in - in0, out - out0
	}

	nopIn, nopOut := traffic(Request{Key: "net/fn", Source: nopSource, Args: "{}"})
	if nopIn == 0 || nopOut == 0 {
		t.Errorf("proxy traffic in=%d out=%d; guest hypercalls not routed", nopIn, nopOut)
	}
	io := Request{Key: "io", Source: `function main(a) { return {body: http.get("http://ext/")}; }`, Args: "{}"}
	if in, out := traffic(io); in != nopIn+1 || out != nopOut+1 {
		t.Errorf("http.get: %d in, %d out; want one more each than a NOP's %d, %d", in, out, nopIn, nopOut)
	}

	handlerErr = errors.New("remote down")
	traffic(io)
	handlerErr = nil
	traffic(io) // the proxy drops this request's packet
	if cfg.Faults.Fired(fault.PointProxyDrop) != 1 {
		t.Error("proxy-drop never fired")
	}

	owner = n.idle[io.Key][0].mu.u.ID()
	traffic(io)
	if flows != 1 || orphans != 0 {
		t.Errorf("during http.get: %d external mappings, %d left after its UC's unmap; want 1 and 0", flows, orphans)
	}
}
