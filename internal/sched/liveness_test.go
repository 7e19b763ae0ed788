package sched

import "testing"

// TestMemberStateMachine walks the heartbeat state machine: alive →
// suspect after suspectAfter consecutive misses → dead after deadAfter,
// with any landed report resetting to alive.
func TestMemberStateMachine(t *testing.T) {
	v := NewView(1)
	if s := v.State(0); s != StateAlive {
		t.Fatalf("zero-value state = %v, want alive", s)
	}

	if from, to := v.MissHeartbeat(0, 2, 4); from != StateAlive || to != StateAlive {
		t.Fatalf("miss 1: %v -> %v, want alive -> alive", from, to)
	}
	if from, to := v.MissHeartbeat(0, 2, 4); from != StateAlive || to != StateSuspect {
		t.Fatalf("miss 2: %v -> %v, want alive -> suspect", from, to)
	}
	if v.alive(0) {
		t.Error("suspect node reported alive")
	}
	if from, to := v.MissHeartbeat(0, 2, 4); from != StateSuspect || to != StateSuspect {
		t.Fatalf("miss 3: %v -> %v, want suspect -> suspect", from, to)
	}
	if from, to := v.MissHeartbeat(0, 2, 4); from != StateSuspect || to != StateDead {
		t.Fatalf("miss 4: %v -> %v, want suspect -> dead", from, to)
	}
	if got := v.Missed(0); got != 4 {
		t.Errorf("Missed = %d, want 4", got)
	}
	// A dead node stays dead on further misses.
	if _, to := v.MissHeartbeat(0, 2, 4); to != StateDead {
		t.Errorf("post-death miss left state %v", to)
	}

	// One landed report revives it completely.
	if prev := v.ReportHeartbeat(0); prev != StateDead {
		t.Fatalf("report returned prior state %v, want dead", prev)
	}
	if !v.alive(0) || v.Missed(0) != 0 {
		t.Errorf("report did not reset: alive=%v missed=%d", v.alive(0), v.Missed(0))
	}
}

// TestSuspectReportRecoversWithoutPurge: a suspect node whose report
// lands keeps all its view entries — only death purges.
func TestSuspectReportRecoversWithoutPurge(t *testing.T) {
	v := NewView(2)
	v.MarkResident(1, "fn")
	v.MissHeartbeat(1, 1, 3) // straight to suspect
	if v.State(1) != StateSuspect {
		t.Fatal("setup: node 1 not suspect")
	}
	if !v.Resident(1, "fn") {
		t.Error("suspicion purged entries; only death should")
	}
	v.ReportHeartbeat(1)
	if !v.Resident(1, "fn") || v.State(1) != StateAlive {
		t.Error("recovery from suspicion lost state")
	}
}

// TestPurgeNodeCounts: purging a dead node's view state drops its
// residency and layer entries and reports how many were pruned.
func TestPurgeNodeCounts(t *testing.T) {
	v := NewView(2)
	v.MarkResident(1, "a")
	v.MarkResident(1, "b")
	v.Refresh(0, []string{"a", "b"}, nil)
	v.Refresh(1, []string{"a", "b"}, []Layer{
		{Key: "fn/a", Digest: 1}, {Key: "runtime/nodejs", Digest: 2},
	})
	if n := v.PurgeNode(1); n != 4 {
		t.Errorf("PurgeNode pruned %d entries, want 4 (2 resident + 2 layers)", n)
	}
	if v.Resident(1, "a") || len(v.Layers(1)) != 0 {
		t.Error("purge left entries behind")
	}
	if !v.Resident(0, "a") {
		t.Error("purge leaked onto another node")
	}
	if n := v.PurgeNode(1); n != 0 {
		t.Errorf("second purge pruned %d, want 0", n)
	}
}

// TestFilterAliveDropsSuspectHolders: the placer-side holder filter
// removes suspect and dead nodes in place.
func TestFilterAliveDropsSuspectHolders(t *testing.T) {
	v := NewView(3)
	v.MissHeartbeat(1, 1, 2) // suspect
	v.MissHeartbeat(2, 1, 2)
	v.MissHeartbeat(2, 1, 2) // dead
	ids := []int{0, 1, 2}
	got := v.filterAlive(ids)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("FilterAlive = %v, want [0]", got)
	}
	// In-place: the result aliases the input's backing array.
	if &got[0] != &ids[0] {
		t.Error("FilterAlive allocated instead of filtering in place")
	}
}

// TestPlacerSkipsNonAliveHolder: a LocalityPlacer degrades holder →
// tier → cold as liveness removes candidates, and LeastLoadedPlacer
// goes cold rather than self-routing on a node it believes non-alive.
func TestPlacerSkipsNonAliveHolder(t *testing.T) {
	v := NewView(3)
	v.MarkResident(1, "fn")
	v.Refresh(2, nil, []Layer{{Key: "fn/fn", Digest: 7}})
	v.MarkResident(2, "fn") // re-add after Refresh replaced node 2's state
	lp := &LocalityPlacer{Replicate: true}

	// Both holders alive: route to the least-loaded one.
	pl := lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(0, 0, 0), View: v})
	if pl.Action != ActionRoute || (pl.Node != 1 && pl.Node != 2) {
		t.Fatalf("placement = %+v, want route to a holder", pl)
	}

	// Node 1 suspect: only holder 2 remains.
	v.MissHeartbeat(1, 1, 3)
	pl = lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(0, 0, 0), View: v})
	if pl.Action != ActionRoute || pl.Node != 2 {
		t.Fatalf("placement = %+v, want route to the live holder 2", pl)
	}

	// Node 2 suspect too, but it still advertises the lineage on disk —
	// and a suspect tier holder is skipped as well: cold, never stranded.
	// (Ground-truth health keeps the cold boot off the sick nodes.)
	v.DropResident(2, "fn")
	v.MissHeartbeat(2, 1, 3)
	st := []NodeState{{ID: 0, Healthy: true}, {ID: 1}, {ID: 2}}
	pl = lp.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: st, View: v})
	if pl.Action != ActionCold || pl.Node != 0 {
		t.Fatalf("placement = %+v, want cold on the one alive node", pl)
	}

	lb := &LeastLoadedPlacer{}
	v2 := NewView(2)
	v2.MarkResident(0, "fn")
	v2.MissHeartbeat(0, 1, 3)
	pl = lb.Place(Request{Key: "fn", Lineage: "fn/fn", Nodes: nodes(0, 9), View: v2})
	if pl.Node != 0 || pl.Action != ActionCold {
		t.Fatalf("placement = %+v, want cold (no self-route on a suspect node)", pl)
	}
}

// TestMemberStateStrings pins the state names used in /stats and traces.
func TestMemberStateStrings(t *testing.T) {
	if StateAlive.String() != "alive" || StateSuspect.String() != "suspect" || StateDead.String() != "dead" {
		t.Error("member state names")
	}
}
