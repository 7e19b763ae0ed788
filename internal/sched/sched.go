// Package sched is the shared scheduler layer: the placement policy
// that used to live inside internal/cluster's pick() and, in ad-hoc
// form, inside the shardpool router and faas front doors.
//
// The split of responsibilities is:
//
//   - View (view.go) is the scheduler's shared state: which node holds
//     which function snapshot in RAM, and which content-addressed
//     layers each node's disk tier advertises. It is the one piece of
//     scheduler state touched from multiple goroutines, so it is
//     lock-protected (RWMutex) and safe for concurrent lookups during
//     a gossip refresh.
//   - Placer turns one request plus the view into a decision: which
//     node serves it, and by which action (cold, route, or fetch the
//     missing layers). Placers are
//     single-writer by contract — one owner goroutine per placer —
//     and the built-in placers assert that contract at runtime.
//
// The caller (internal/cluster) owns verification and mechanics: it
// checks the decision against ground truth (a holder may have evicted
// since the last gossip round), prunes stale view entries, and executes
// transfers. The placer only decides.
package sched

import (
	"fmt"
	"sync/atomic"
)

// action is what the placer tells the caller to do with a request.
type action int

const (
	// ActionCold places the request on a node with no snapshot
	// anywhere: the function pays its once-per-cluster cold start.
	ActionCold action = iota
	// ActionRoute forwards the request to a node already holding the
	// snapshot (in RAM, or on disk for a lukewarm restore).
	ActionRoute
	// ActionFetch pulls only the missing snapshot-stack layers from the
	// holder's content-addressed store to the chosen node, then serves
	// there — layers already present locally (by digest) ship nothing.
	ActionFetch
)

var actionNames = [...]string{"cold", "route", "fetch"}

// String implements fmt.Stringer.
func (a action) String() string { return actionNames[a] }

// NodeState is one node's load and health input to a placement.
type NodeState struct {
	// ID indexes the node in the cluster's member list.
	ID int
	// Inflight is the node's requests currently being served.
	Inflight int
	// Healthy is false when the node's breaker (or equivalent) says it
	// should not take new placements; an all-unhealthy cluster falls
	// back to ignoring the flag (serving degraded beats serving nobody).
	Healthy bool
}

// Request is one placement question.
type Request struct {
	// Key is the function key.
	Key string
	// Lineage is the function's snapshot-tier key ("fn/<key>").
	Lineage string
	// Nodes is the per-node load/health state. The slice may be reused
	// by the caller between calls; placers must not retain it.
	Nodes []NodeState
	// View is the gossip-refreshed residency and layer state.
	View *View
}

// Placement is the decision.
type Placement struct {
	// Node serves the request.
	Node int
	// Action is how the node gets ready to serve it.
	Action action
	// Holder is the source node for ActionFetch and the serving holder
	// for ActionRoute; -1 when no holder is involved.
	Holder int
}

// Placer decides where one request runs. Implementations are
// single-writer: exactly one goroutine calls Place on a given placer
// (the cluster's engine goroutine). Cross-goroutine scheduler state
// belongs in the View, which is lock-protected.
type Placer interface {
	Place(r Request) Placement
	// Name identifies the policy in reports and experiment output.
	Name() string
}

// singleWriter asserts the Placer ownership contract at runtime: a
// second goroutine entering Place concurrently panics immediately
// instead of corrupting the cursor/scratch state silently.
type singleWriter struct{ busy atomic.Bool }

func (sw *singleWriter) enter(who string) {
	if !sw.busy.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("sched: %s.Place called concurrently; placers are single-writer by contract", who))
	}
}

func (sw *singleWriter) exit() { sw.busy.Store(false) }

// placeSlack is how many in-flight requests beyond the least-loaded
// node's a holder may carry before LocalityPlacer counts it overloaded.
const placeSlack = 1

// LocalityPlacer is the default policy: serve where the snapshot
// already lives. A request routes to its least-loaded holder while the
// holder keeps up; once the holder is placeSlack requests busier than the
// cluster's least-loaded node and Replicate is set, the function
// replicates there by layer fetch (the caller routes to the holder
// instead when either end has no disk tier to fetch through). With no
// RAM holder anywhere, a node advertising the lineage on disk serves
// lukewarm; failing that, the request is cold exactly once per cluster,
// placed least-loaded with a round-robin tie-break.
type LocalityPlacer struct {
	// Replicate allows fetch placements when a holder is overloaded
	// (a replicated snapshot cache). False always routes.
	Replicate bool

	sw      singleWriter
	cursor  int
	holders []int // scratch, reused across calls
}

// Name implements Placer.
func (lp *LocalityPlacer) Name() string {
	if lp.Replicate {
		return "locality-replicate"
	}
	return "locality-route"
}

// Place implements Placer.
func (lp *LocalityPlacer) Place(r Request) Placement {
	lp.sw.enter("LocalityPlacer")
	defer lp.sw.exit()
	least := leastLoaded(r.Nodes, &lp.cursor)

	// Holders the heartbeat machinery believes non-alive are skipped:
	// routing to a suspect node gambles the request on a member that has
	// stopped reporting, and a dead one is certain to fail over.
	lp.holders = r.View.filterAlive(r.View.appendResidentHolders(lp.holders[:0], r.Key))
	holder := minInflight(r.Nodes, lp.holders)
	if holder < 0 {
		// No reachable RAM holder. A live node holding the lineage in
		// its disk tier serves lukewarm — far cheaper than another
		// cluster cold.
		lp.holders = r.View.filterAlive(r.View.appendTierHolders(lp.holders[:0], r.Lineage))
		if h := minInflight(r.Nodes, lp.holders); h >= 0 {
			return Placement{Node: h, Action: ActionRoute, Holder: h}
		}
		// No live holder and no live disk copy: the request is never
		// stranded — it cold-boots locally on the least-loaded node.
		return Placement{Node: least.ID, Action: ActionCold, Holder: -1}
	}

	hs := stateOf(r.Nodes, holder)
	if !lp.Replicate || hs.Inflight <= least.Inflight+placeSlack {
		return Placement{Node: holder, Action: ActionRoute, Holder: holder}
	}
	// The holder is overloaded and replication is allowed.
	if r.View.Resident(least.ID, r.Key) {
		// A replica already lives on the least-loaded node.
		return Placement{Node: least.ID, Action: ActionRoute, Holder: least.ID}
	}
	return Placement{Node: least.ID, Action: ActionFetch, Holder: holder}
}

// LeastLoadedPlacer ignores locality entirely: every request goes to
// the least-loaded node, which pays its own cold start if it has never
// seen the function. It is the "local-only" baseline arm of the fabric
// experiment — what a cluster without the snapshot directory does.
type LeastLoadedPlacer struct {
	sw     singleWriter
	cursor int
}

// Name implements Placer.
func (lb *LeastLoadedPlacer) Name() string { return "least-loaded" }

// Place implements Placer.
func (lb *LeastLoadedPlacer) Place(r Request) Placement {
	lb.sw.enter("LeastLoadedPlacer")
	defer lb.sw.exit()
	least := leastLoaded(r.Nodes, &lb.cursor)
	if r.View.Resident(least.ID, r.Key) && r.View.alive(least.ID) {
		return Placement{Node: least.ID, Action: ActionRoute, Holder: least.ID}
	}
	return Placement{Node: least.ID, Action: ActionCold, Holder: -1}
}

// leastLoaded picks the healthy node with the fewest in-flight
// requests; ties rotate round-robin through cursor so sequential
// traffic still spreads. If no node is healthy, health is ignored.
func leastLoaded(nodes []NodeState, cursor *int) NodeState {
	n := len(nodes)
	anyHealthy := false
	for i := range nodes {
		if nodes[i].Healthy {
			anyHealthy = true
			break
		}
	}
	best := -1
	for i := 0; i < n; i++ {
		j := (*cursor + i) % n
		if anyHealthy && !nodes[j].Healthy {
			continue
		}
		if best < 0 || nodes[j].Inflight < nodes[best].Inflight {
			best = j
		}
	}
	*cursor++
	return nodes[best]
}

// minInflight returns the ID of the least-loaded healthy node among
// ids (first-wins on ties, matching the old holderFor), or -1 when ids
// is empty or every candidate is unhealthy — unlike leastLoaded there
// is no all-unhealthy fallback, because a holder the caller marked
// unhealthy (down, or the member a retry just failed on) must not be
// re-picked; the placer degrades to tier holders or a cold boot
// instead.
func minInflight(nodes []NodeState, ids []int) int {
	best := -1
	bestIn := 0
	for _, id := range ids {
		s := stateOf(nodes, id)
		if !s.Healthy {
			continue
		}
		if best < 0 || s.Inflight < bestIn {
			best, bestIn = id, s.Inflight
		}
	}
	return best
}

// stateOf resolves a node ID against the request's state slice.
func stateOf(nodes []NodeState, id int) NodeState {
	for i := range nodes {
		if nodes[i].ID == id {
			return nodes[i]
		}
	}
	return NodeState{ID: id}
}

// OwnerShard routes a key to its owner among n shards by 32-bit FNV-1a,
// computed inline over the string so front doors do not allocate a
// hasher and a byte-slice copy per request. Constants and routing match
// hash/fnv's FNV-1a exactly. This is the shared key-affinity hash: the
// shardpool front door and any consistent per-key routing use the same
// function, so a key's owner is stable across layers.
func OwnerShard(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}
