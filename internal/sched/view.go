package sched

import (
	"sync"
)

// Layer is one content-addressed snapshot layer a node's disk tier
// advertises: the tier key, its base dependency, and the FNV-64a digest
// of the encoded bytes. Two nodes advertising the same digest hold
// byte-identical layers — the dedup unit of the fabric.
type Layer struct {
	Key    string
	Base   string
	Digest uint64
	Size   int64
}

// memberState is the scheduler's liveness belief about one node,
// driven by heartbeats piggybacked on gossip rounds: a node whose
// report lands is alive; one that misses K consecutive rounds is
// suspect; one that keeps missing is declared dead and has its view
// entries purged. The zero value is StateAlive, so callers that never
// run the heartbeat machinery (the shardpool router) see every node as
// placeable.
type memberState int

const (
	// StateAlive: heartbeats landing; the node takes placements.
	StateAlive memberState = iota
	// StateSuspect: K or more consecutive heartbeats missed; placers
	// skip the node as a holder but its entries are retained — a single
	// resumed report restores it.
	StateSuspect
	// StateDead: the suspicion deadline passed; the node's view entries
	// are purged and orphaned lineages become repair work.
	StateDead
)

var memberStateNames = [...]string{"alive", "suspect", "dead"}

// String implements fmt.Stringer.
func (s memberState) String() string { return memberStateNames[s] }

// nodeView is what the scheduler believes about one node.
type nodeView struct {
	// state is the heartbeat-driven liveness belief; missed counts the
	// consecutive heartbeat rounds the node has failed to report.
	state  memberState
	missed int
	// resident is the node's RAM-resident function snapshots, keyed by
	// function key. Updated synchronously on serve/transfer success and
	// replaced wholesale by gossip.
	resident map[string]bool
	// layers is the node's advertised disk-tier manifest, keyed by tier
	// key. Replaced wholesale by gossip.
	layers map[string]Layer
}

// View is the scheduler's shared state: per-node snapshot residency
// and disk-tier layer manifests.
//
// Concurrency contract: View is the ONLY scheduler state shared across
// goroutines, and every method is safe for concurrent use — lookups
// (ResidentHolders, TierHolders, Resident, Layer) may run concurrently
// with a gossip Refresh, serialized by an internal RWMutex. Placers,
// by contrast, are single-writer (see Placer); they read the view but
// keep their own cursor/scratch state unshared.
//
// Staleness model: MarkResident/DropResident keep the view exact for
// transitions the scheduler itself performs (a serve, a fetch, a
// prune). Evictions happen inside nodes without the scheduler's
// knowledge; gossip's wholesale Refresh is what eventually drops those
// entries, and the placement verifier prunes any it trips over first.
type View struct {
	mu    sync.RWMutex
	nodes []nodeView
	gen   int64 // bumped per Refresh (tests, debugging)
}

// NewView returns an empty view over n nodes.
func NewView(n int) *View {
	v := &View{nodes: make([]nodeView, n)}
	for i := range v.nodes {
		v.nodes[i] = nodeView{
			resident: make(map[string]bool),
			layers:   make(map[string]Layer),
		}
	}
	return v
}

// State returns the liveness belief for a node.
func (v *View) State(node int) memberState {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.nodes[node].state
}

// alive reports whether the view believes a node is taking placements.
func (v *View) alive(node int) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.nodes[node].state == StateAlive
}

// Missed returns how many consecutive heartbeat rounds a node has
// failed to report (0 while alive).
func (v *View) Missed(node int) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.nodes[node].missed
}

// ReportHeartbeat records that a node's gossip report landed this
// round: its missed count resets and it is believed alive again.
// Returns the state the node held before the report, so the caller can
// count and trace recoveries.
func (v *View) ReportHeartbeat(node int) memberState {
	v.mu.Lock()
	defer v.mu.Unlock()
	prev := v.nodes[node].state
	v.nodes[node].state = StateAlive
	v.nodes[node].missed = 0
	return prev
}

// MissHeartbeat records that a node failed to report this gossip round
// and advances the state machine: alive → suspect after suspectAfter
// consecutive misses, suspect → dead after deadAfter. Returns the
// states before and after so the caller can count transitions. A dead
// node stays dead until a report lands (ReportHeartbeat).
func (v *View) MissHeartbeat(node, suspectAfter, deadAfter int) (from, to memberState) {
	v.mu.Lock()
	defer v.mu.Unlock()
	nv := &v.nodes[node]
	from = nv.state
	nv.missed++
	switch {
	case nv.missed >= deadAfter:
		nv.state = StateDead
	case nv.missed >= suspectAfter:
		nv.state = StateSuspect
	}
	return from, nv.state
}

// PurgeNode drops everything the view believes about a node's contents
// — its residency entries and advertised layers — and returns how many
// entries were pruned. Called when a node is declared dead (its RAM is
// gone and its disk unreachable) and when a rejoining node resyncs
// from scratch.
func (v *View) PurgeNode(node int) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	nv := &v.nodes[node]
	n := len(nv.resident) + len(nv.layers)
	nv.resident = make(map[string]bool)
	nv.layers = make(map[string]Layer)
	return n
}

// filterAlive removes (in place) the IDs of nodes not believed alive
// and returns the filtered slice — the holder-liveness filter placers
// apply before routing.
func (v *View) filterAlive(ids []int) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := ids[:0]
	for _, id := range ids {
		if v.nodes[id].state == StateAlive {
			out = append(out, id)
		}
	}
	return out
}

// Refresh replaces one node's gossiped state wholesale: its resident
// function keys and its disk-tier layer manifest. Entries the node no
// longer holds disappear from the view here — gossip is the staleness
// collector.
func (v *View) Refresh(node int, resident []string, layers []Layer) {
	res := make(map[string]bool, len(resident))
	for _, k := range resident {
		res[k] = true
	}
	lay := make(map[string]Layer, len(layers))
	for _, l := range layers {
		lay[l.Key] = l
	}
	v.mu.Lock()
	v.nodes[node].resident = res
	v.nodes[node].layers = lay
	v.gen++
	v.mu.Unlock()
}

// Generation returns how many Refresh calls the view has absorbed.
func (v *View) Generation() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.gen
}

// MarkResident records that a node now holds a function snapshot (a
// successful serve, fetch, or migration).
func (v *View) MarkResident(node int, key string) {
	v.mu.Lock()
	v.nodes[node].resident[key] = true
	v.mu.Unlock()
}

// DropResident removes a residency entry (a stale-directory prune).
func (v *View) DropResident(node int, key string) {
	v.mu.Lock()
	delete(v.nodes[node].resident, key)
	v.mu.Unlock()
}

// DropLayer removes an advertised tier layer (a stale-manifest prune).
func (v *View) DropLayer(node int, key string) {
	v.mu.Lock()
	delete(v.nodes[node].layers, key)
	v.mu.Unlock()
}

// Resident reports whether the view believes node holds key in RAM.
func (v *View) Resident(node int, key string) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.nodes[node].resident[key]
}

// appendResidentHolders appends (to dst) the IDs of nodes believed to
// hold key in RAM, in ascending node order, and returns the extended
// slice — the allocation-free lookup the hot path uses.
func (v *View) appendResidentHolders(dst []int, key string) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i := range v.nodes {
		if v.nodes[i].resident[key] {
			dst = append(dst, i)
		}
	}
	return dst
}

// ResidentHolders returns the nodes believed to hold key in RAM, in
// ascending node order. Allocates; hot paths use the Append form.
func (v *View) ResidentHolders(key string) []int {
	return v.appendResidentHolders(nil, key)
}

// appendTierHolders appends the IDs of nodes whose advertised disk
// manifest contains the lineage key, in ascending node order.
func (v *View) appendTierHolders(dst []int, lineage string) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i := range v.nodes {
		if _, ok := v.nodes[i].layers[lineage]; ok {
			dst = append(dst, i)
		}
	}
	return dst
}
