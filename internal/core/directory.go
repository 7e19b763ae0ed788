package core

import (
	"sort"

	"seuss/internal/sim"
)

// HasSnapshot reports whether a function snapshot for key is cached.
func (n *Node) HasSnapshot(key string) bool {
	_, ok := n.fnSnaps[key]
	return ok
}

// HasIdleUC reports whether a hot-path UC for key is cached.
func (n *Node) HasIdleUC(key string) bool {
	return len(n.idle[key]) > 0
}

// SnapshotKeys returns the cached function snapshot keys in sorted
// order — what the node reports in a scheduler gossip round.
func (n *Node) SnapshotKeys() []string {
	keys := make([]string, 0, len(n.fnSnaps))
	for k := range n.fnSnaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FlushLineage demotes one cached function snapshot to the disk tier
// (metadata-only when the tier already holds identical bytes) so a
// fabric fetch can read its encoded layers. Reports whether the
// snapshot is now in the tier.
func (n *Node) FlushLineage(p *sim.Proc, key string) bool {
	e, ok := n.fnSnaps[key]
	if !ok {
		return false
	}
	return n.demoteSnapshot(p, e.snap)
}
