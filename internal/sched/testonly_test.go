package sched

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"sort"
)

// Layers returns a node's advertised manifest sorted by key (tests,
// introspection).
func (v *View) Layers(node int) []Layer {
	v.mu.RLock()
	out := make([]Layer, 0, len(v.nodes[node].layers))
	for _, l := range v.nodes[node].layers {
		out = append(out, l)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Layer returns a node's advertised layer for a tier key.
func (v *View) Layer(node int, key string) (Layer, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	l, ok := v.nodes[node].layers[key]
	return l, ok
}
