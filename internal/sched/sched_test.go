package sched

import (
	"hash/fnv"
	"sync"
	"testing"
)

func nodes(inflight ...int) []NodeState {
	out := make([]NodeState, len(inflight))
	for i, f := range inflight {
		out[i] = NodeState{ID: i, Inflight: f, Healthy: true}
	}
	return out
}

// TestLocalityPlacerRoutesToHolder: a request whose lineage lives on
// node A is placed on A, not on the emptier node B — the locality
// property of the acceptance criteria.
func TestLocalityPlacerRoutesToHolder(t *testing.T) {
	v := NewView(3)
	v.MarkResident(1, "fn")
	lp := &LocalityPlacer{Replicate: true}
	for i := 0; i < 5; i++ {
		pl := lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(0, 0, 0), View: v})
		if pl.Action != ActionRoute || pl.Node != 1 {
			t.Fatalf("placement = %+v, want route to holder 1", pl)
		}
	}
}

// TestLocalityPlacerColdSpreads: with no holders anywhere, sequential
// cold placements rotate round-robin across the idle nodes.
func TestLocalityPlacerColdSpreads(t *testing.T) {
	v := NewView(4)
	lp := &LocalityPlacer{}
	used := make(map[int]bool)
	for i := 0; i < 4; i++ {
		pl := lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(0, 0, 0, 0), View: v})
		if pl.Action != ActionCold {
			t.Fatalf("placement = %+v, want cold", pl)
		}
		used[pl.Node] = true
	}
	if len(used) != 4 {
		t.Fatalf("cold placements used %d/4 nodes", len(used))
	}
}

// TestLocalityPlacerOverloadReplicates: an overloaded holder triggers
// a layer fetch to the least-loaded node; without Replicate it keeps
// routing.
func TestLocalityPlacerOverloadReplicates(t *testing.T) {
	v := NewView(2)
	v.MarkResident(0, "fn")
	st := nodes(5, 0) // holder 5 in flight, node 1 idle

	noRep := &LocalityPlacer{Replicate: false}
	if pl := noRep.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: st, View: v}); pl.Action != ActionRoute || pl.Node != 0 {
		t.Fatalf("route-only placement = %+v, want route to 0", pl)
	}

	rep := &LocalityPlacer{Replicate: true}
	if pl := rep.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: st, View: v}); pl.Action != ActionFetch || pl.Node != 1 || pl.Holder != 0 {
		t.Fatalf("replicating placement = %+v, want fetch 0 -> 1", pl)
	}

	// A replica already on the least-loaded node short-circuits to it.
	v.MarkResident(1, "fn")
	if pl := rep.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: st, View: v}); pl.Action != ActionRoute || pl.Node != 1 {
		t.Fatalf("replica placement = %+v, want route to 1", pl)
	}
}

// TestLocalityPlacerTierRouteLukewarm: with no RAM holder but a node
// advertising the lineage on disk, the request routes there for a
// lukewarm restore instead of going cold elsewhere.
func TestLocalityPlacerTierRouteLukewarm(t *testing.T) {
	v := NewView(3)
	v.Refresh(2, nil, []Layer{{Key: "fn/fn", Base: "runtime/nodejs", Digest: 42, Size: 100}})
	lp := &LocalityPlacer{Replicate: true}
	pl := lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(0, 0, 0), View: v})
	if pl.Action != ActionRoute || pl.Node != 2 {
		t.Fatalf("placement = %+v, want lukewarm route to 2", pl)
	}
}

// TestLocalityPlacerSkipsUnhealthy: unhealthy nodes take no cold
// placements unless every node is unhealthy.
func TestLocalityPlacerSkipsUnhealthy(t *testing.T) {
	v := NewView(2)
	lp := &LocalityPlacer{}
	st := []NodeState{{ID: 0, Inflight: 0, Healthy: false}, {ID: 1, Inflight: 9, Healthy: true}}
	for i := 0; i < 3; i++ {
		if pl := lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: st, View: v}); pl.Node != 1 {
			t.Fatalf("placement landed on unhealthy node: %+v", pl)
		}
	}
	allSick := []NodeState{{ID: 0}, {ID: 1}}
	if pl := lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: allSick, View: v}); pl.Node != 0 && pl.Node != 1 {
		t.Fatalf("all-unhealthy placement = %+v", pl)
	}
}

// TestLeastLoadedPlacerIgnoresLocality: the baseline arm never fetches
// or migrates; a node it picks that has served the key before routes to
// itself, anything else is a fresh cold.
func TestLeastLoadedPlacerIgnoresLocality(t *testing.T) {
	v := NewView(2)
	v.MarkResident(0, "fn")
	lb := &LeastLoadedPlacer{}
	pl := lb.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(9, 0), View: v})
	if pl.Node != 1 || pl.Action != ActionCold {
		t.Fatalf("placement = %+v, want cold on idle node 1 despite holder 0", pl)
	}
	pl = lb.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(0, 9), View: v})
	if pl.Node != 0 || pl.Action != ActionRoute {
		t.Fatalf("placement = %+v, want self-route on node 0", pl)
	}
}

// TestOwnerShardMatchesFNV: the inlined hash is exactly hash/fnv's
// 32-bit FNV-1a — the shardpool front door and sched agree on owners.
func TestOwnerShardMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "alice/hello", "fn-000123", "布"}
	for _, key := range keys {
		for _, n := range []int{1, 2, 7, 16} {
			h := fnv.New32a()
			h.Write([]byte(key))
			want := int(h.Sum32() % uint32(n))
			if got := OwnerShard(key, n); got != want {
				t.Errorf("OwnerShard(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
}

// TestPlacerSingleWriterAsserted: the single-writer contract is
// enforced, not just documented — a second concurrent Place panics.
func TestPlacerSingleWriterAsserted(t *testing.T) {
	lp := &LocalityPlacer{}
	lp.sw.enter("LocalityPlacer") // simulate an in-flight Place
	defer lp.sw.exit()
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent Place did not panic")
		}
	}()
	lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(0), View: NewView(1)})
}

// TestViewConcurrentLookupsDuringRefresh: the satellite's -race test —
// concurrent holder lookups, residency marks, and wholesale gossip
// refreshes on one View must be data-race free and never observe torn
// state.
func TestViewConcurrentLookupsDuringRefresh(t *testing.T) {
	v := NewView(4)
	layers := []Layer{
		{Key: "fn/a", Base: "runtime/nodejs", Digest: 1, Size: 10},
		{Key: "runtime/nodejs", Digest: 2, Size: 100},
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Gossip writer: wholesale refreshes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v.Refresh(i%4, []string{"a", "b"}, layers)
		}
	}()
	// Synchronous scheduler updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v.MarkResident(i%4, "c")
			v.DropResident((i+1)%4, "c")
		}
	}()
	// Concurrent readers run a fixed iteration count; the writers spin
	// until the readers finish.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var scratch []int
			for i := 0; i < 5000; i++ {
				scratch = v.AppendResidentHolders(scratch[:0], "a")
				for _, id := range scratch {
					if id < 0 || id >= 4 {
						t.Errorf("torn holder ID %d", id)
						return
					}
				}
				scratch = v.AppendTierHolders(scratch[:0], "fn/a")
				v.Resident(i%4, "b")
				v.Layer(i%4, "runtime/nodejs")
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestViewRefreshReplacesState: gossip is the staleness collector — a
// refresh that no longer lists an entry removes it from the view.
func TestViewRefreshReplacesState(t *testing.T) {
	v := NewView(2)
	v.MarkResident(0, "old")
	v.Refresh(0, []string{"new"}, nil)
	if v.Resident(0, "old") {
		t.Error("refresh kept a residency entry the node no longer reported")
	}
	if !v.Resident(0, "new") {
		t.Error("refresh dropped a reported residency entry")
	}
	if g := v.Generation(); g != 1 {
		t.Errorf("Generation = %d, want 1", g)
	}
}
