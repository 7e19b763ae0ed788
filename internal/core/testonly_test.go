package core

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"seuss/internal/mem"
	"seuss/internal/netsim"
	"seuss/internal/sim"
)

// reclaimAll destroys every idle UC (last-resort memory recovery). A
// nil proc is allowed for harness-side teardown; destruction costs are
// then dropped.
func (n *Node) reclaimAll(p *sim.Proc) {
	for n.reclaimOneIdle(p) {
	}
}

// Proxy exposes the per-core network proxy (instrumentation).
func (n *Node) Proxy() *netsim.Proxy { return n.proxy }

// Cores returns the node's core resource (harness instrumentation).
func (n *Node) Cores() *sim.Resource { return n.cores }

// Store exposes the physical memory store (harness use).
func (n *Node) Store() *mem.Store { return n.store }

// Runtimes returns the configured interpreter names.
func (n *Node) Runtimes() []string {
	out := make([]string, 0, len(n.runtimeSnaps))
	for _, name := range n.cfg.Runtimes {
		if _, ok := n.runtimeSnaps[name]; ok {
			out = append(out, name)
		}
	}
	return out
}
