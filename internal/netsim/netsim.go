// Package netsim simulates the two network data planes of the
// evaluation:
//
//   - The SEUSS per-core network proxy (§6 Networking): every UC shares
//     one IP/MAC identity; a per-core proxy maintains internal and
//     external mappings keyed by TCP destination port, screens incoming
//     traffic, and masquerades outbound connections. Only outgoing TCP
//     connections initiated from within a unikernel are supported.
//
//   - The Linux bridge the container baseline hangs off: a single
//     broadcast packet (ARP, DHCP) sent over a bridge with N endpoints
//     is processed in the kernel N separate times [§7, 46]. Past ~1024
//     endpoints the softirq load saturates and packets drop, timing out
//     the controller↔container connections — the failure mode that caps
//     the paper's Linux container cache at 1024.
package netsim

import (
	"errors"
	"fmt"

	"seuss/internal/costs"
	"seuss/internal/sim"
)

// errNoRoute is returned for traffic to an unmapped port.
var errNoRoute = errors.New("netsim: no route for port")

// endpoint identifies a UC on a worker core.
type endpoint struct {
	UCID uint64
	Core int
}

// Proxy is the per-node collection of per-core proxy tables. TCP
// destination ports act as the unique key mapping packets to active
// UCs.
type Proxy struct {
	cores    int
	nextPort int
	internal map[int]endpoint // host→UC connections
	external map[int]endpoint // UC-initiated outbound flows (masqueraded)
	inPkts   int64
	outPkts  int64
	screened int64 // inbound packets dropped by screening
}

// NewProxy returns a proxy for a node with the given worker core count.
func NewProxy(cores int) *Proxy {
	return &Proxy{
		cores:    cores,
		nextPort: 20000,
		internal: make(map[int]endpoint),
		external: make(map[int]endpoint),
	}
}

// MapInternal allocates a port for a host→UC connection and installs
// the mapping on the UC's core, returning the port.
func (p *Proxy) MapInternal(ucID uint64, core int) (int, error) {
	if core < 0 || core >= p.cores {
		return 0, fmt.Errorf("netsim: core %d out of range", core)
	}
	port := p.allocPort()
	p.internal[port] = endpoint{UCID: ucID, Core: core}
	return port, nil
}

// MapOutbound installs a masquerade entry for a UC-initiated outbound
// TCP connection and returns the translated source port.
func (p *Proxy) MapOutbound(ucID uint64, core int) (int, error) {
	if core < 0 || core >= p.cores {
		return 0, fmt.Errorf("netsim: core %d out of range", core)
	}
	port := p.allocPort()
	p.external[port] = endpoint{UCID: ucID, Core: core}
	return port, nil
}

func (p *Proxy) allocPort() int {
	for {
		p.nextPort++
		if p.nextPort > 65000 {
			p.nextPort = 20000
		}
		if _, in := p.internal[p.nextPort]; in {
			continue
		}
		if _, out := p.external[p.nextPort]; out {
			continue
		}
		return p.nextPort
	}
}

// RouteInbound screens an incoming packet and returns the UC endpoint
// it maps to. Packets destined for unmapped ports are screened out.
// Inbound traffic can only belong to an internal mapping or be a reply
// on a masqueraded outbound flow.
func (p *Proxy) RouteInbound(port int) (endpoint, error) {
	p.inPkts++
	if ep, ok := p.internal[port]; ok {
		return ep, nil
	}
	if ep, ok := p.external[port]; ok {
		return ep, nil
	}
	p.screened++
	return endpoint{}, errNoRoute
}

// RouteOutbound records a UC-originated packet on a mapped flow.
func (p *Proxy) RouteOutbound(port int) (endpoint, error) {
	p.outPkts++
	if ep, ok := p.external[port]; ok {
		return ep, nil
	}
	if ep, ok := p.internal[port]; ok {
		return ep, nil
	}
	return endpoint{}, errNoRoute
}

// Unmap removes a mapping when its connection or UC dies.
func (p *Proxy) Unmap(port int) {
	delete(p.internal, port)
	delete(p.external, port)
}

// UnmapUC removes every mapping belonging to a UC.
func (p *Proxy) UnmapUC(ucID uint64) {
	for port, ep := range p.internal {
		if ep.UCID == ucID {
			delete(p.internal, port)
		}
	}
	for port, ep := range p.external {
		if ep.UCID == ucID {
			delete(p.external, port)
		}
	}
}

// Mappings returns the number of live (internal, external) mappings.
func (p *Proxy) Mappings() (internal, external int) {
	return len(p.internal), len(p.external)
}

// Traffic returns the (inbound, outbound) packet counts the proxy has
// routed.
func (p *Proxy) Traffic() (in, out int64) { return p.inPkts, p.outPkts }

// Bridge models the Linux bridge + veth network shared by the container
// baseline. Endpoint count drives broadcast load; past the drop
// threshold, connection attempts start failing probabilistically — the
// paper's observed controller↔container timeouts.
type Bridge struct {
	endpoints int
	rng       *sim.RNG
	attempts  int64
	drops     int64
}

// NewBridge returns a bridge with a deterministic RNG for drop
// decisions.
func NewBridge(rng *sim.RNG) *Bridge {
	return &Bridge{rng: rng}
}

// Attach adds a veth endpoint (container creation).
func (b *Bridge) Attach() { b.endpoints++ }

// Detach removes an endpoint (container destruction).
func (b *Bridge) Detach() {
	if b.endpoints > 0 {
		b.endpoints--
	}
}

// Endpoints returns the number of attached endpoints.
func (b *Bridge) Endpoints() int { return b.endpoints }

// broadcastLoad returns the fraction of one core the bridge's broadcast
// processing consumes: each endpoint generates broadcasts at
// BridgeBroadcastRate/s and each broadcast is processed once per
// endpoint — the O(N²) kernel work of [46].
func (b *Bridge) broadcastLoad() float64 {
	n := float64(b.endpoints)
	perSec := n * costs.BridgeBroadcastRate                // broadcasts/s
	work := perSec * n * costs.BridgePerEndpoint.Seconds() // core-seconds/s
	return work
}

// DropProbability returns the chance a connection attempt fails at the
// current endpoint count. Zero below the threshold; grows linearly to
// near-certain loss as broadcast work exceeds a full core.
func (b *Bridge) DropProbability() float64 {
	load := b.broadcastLoad()
	if load <= costs.BridgeDropThreshold {
		return 0
	}
	p := (load - costs.BridgeDropThreshold) / (1.0 - costs.BridgeDropThreshold)
	if p > 0.95 {
		p = 0.95
	}
	return p
}

// Connect attempts a TCP connection across the bridge; false means the
// packets dropped and the caller will hit its timeout.
func (b *Bridge) Connect() bool {
	b.attempts++
	p := b.DropProbability()
	if p > 0 && b.rng.Float64() < p {
		b.drops++
		return false
	}
	return true
}
