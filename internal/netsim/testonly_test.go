package netsim

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"errors"
)

// Stats returns (attempts, drops).
func (b *Bridge) Stats() (attempts, drops int64) { return b.attempts, b.drops }

// Screened returns the count of inbound packets dropped by screening.
func (p *Proxy) Screened() int64 { return p.screened }

// InboundConnect handles an externally initiated connection attempt to
// a UC. The design only supports outgoing TCP connections initiated
// from within the unikernel (§6), so this always fails with
// ErrUnsupported; the packet is screened.
func (p *Proxy) InboundConnect(port int) error {
	p.inPkts++
	p.screened++
	return ErrUnsupported
}

// ErrUnsupported is returned for traffic the proxy does not handle
// (inbound-initiated connections, UDP, IPv6).
var ErrUnsupported = errors.New("netsim: unsupported traffic")
