package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seuss/internal/fault"
	"seuss/internal/metrics"
	"seuss/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/timeline.golden from the current run")

// TestClusterStatsDeriveFromLedger: every cluster.Stats field equals its
// expression over the recorder's counters, and the failover scenario
// leaves none of them zero — so a field that falls out of the mapping,
// or an event counted in the ledger and not on the recorder, fails here.
// The members share the cluster's recorder, which is why the cluster
// keeps a ledger of its own; no counter the cluster writes is also
// written by a node, so the shared readings below are still exact.
func TestClusterStatsDeriveFromLedger(t *testing.T) {
	s := newFailoverScenario(t)
	s.run(t)
	c := s.rec.Counters()
	want := map[string]int64{
		"LocalHits":        c[metrics.CtrSchedLocalHits],
		"RemoteRoutes":     c[metrics.CtrSchedPlacementsRoute] - c[metrics.CtrSchedLocalHits],
		"Fetches":          c[metrics.CtrSchedPlacementsFetch] - c[metrics.CtrFabricFetchesFailed],
		"FetchedBytes":     c[metrics.CtrFabricFetchedBytes],
		"LayerDedups":      c[metrics.CtrFabricLayersDeduped],
		"LayersRejected":   c[metrics.CtrFabricLayersRejected],
		"FailedFetches":    c[metrics.CtrFabricFetchesFailed],
		"FetchRetransmits": c[metrics.CtrFabricFetchRetransmits],
		"ClusterColds":     c[metrics.CtrSchedPlacementsCold],
		"Retries":          c[metrics.CtrClusterRetries],
		"StaleDirectory":   c[metrics.CtrSchedStaleEntries],
		"GossipRounds":     c[metrics.CtrGossipRounds],
		"GossipDrops":      c[metrics.CtrGossipDrops],
		"Failovers":        c[metrics.CtrClusterFailovers],
		"MemberCrashes":    c[metrics.CtrMemberCrashes],
		"MemberRestarts":   c[metrics.CtrMemberRestarts],
		"MemberPartitions": c[metrics.CtrMemberPartitions],
		"SuspectedMembers": c[metrics.CtrMemberStateSuspect],
		"DeadMembers":      c[metrics.CtrMemberStateDead],
		"RevivedMembers":   c[metrics.CtrMemberStateAlive],
		"RepairsPromoted":  c[metrics.CtrFabricRepairsPromoted],
		"RepairsRefetched": c[metrics.CtrFabricRepairsRefetched],
		"RepairsCold":      c[metrics.CtrFabricRepairsCold],
		"RepairsFailed":    c[metrics.CtrFabricRepairsFailed],
	}
	got := reflect.ValueOf(s.c.Stats())
	for i := 0; i < got.NumField(); i++ {
		name, v := got.Type().Field(i).Name, got.Field(i).Int()
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("Stats.%s has no ledger expression in this test", name)
		case v != w:
			t.Errorf("Stats.%s = %d, ledger says %d", name, v, w)
		case v == 0:
			t.Errorf("Stats.%s = 0: the scenario no longer reaches it", name)
		}
	}
	if got.NumField() != len(want) {
		t.Errorf("Stats has %d fields, the test maps %d", got.NumField(), len(want))
	}
	// Every fabric-level fault that fired is on seuss_faults_injected_total;
	// the members' injectors share the schedule but never visit its points.
	if f, fired := c[metrics.CtrFaultsInjected], int64(s.c.faults.TotalFired()); f != fired || fired != 5 {
		t.Errorf("seuss_faults_injected_total = %d, injector fired %d, schedule holds 5", f, fired)
	}
}

// TestClusterTimelineGolden pins the failover scenario's trace: the
// cluster's JSONL timeline as recorded (its IDs are member IDs), then
// the members' with request ids and deploy generations (both
// process-global sequences) renumbered by first appearance, then how
// often each fabric fault point was consulted and what fired.
// Regenerate with `go test ./internal/cluster -run
// TestClusterTimelineGolden -update`.
func TestClusterTimelineGolden(t *testing.T) {
	s := newFailoverScenario(t)
	s.run(t)
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	var err error
	s.tr.ForEachSorted(func(ev trace.Event) bool {
		err = enc.Encode(ev)
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, gens := map[uint64]uint64{}, map[uint64]uint64{}
	renumber := func(seen map[uint64]uint64, v uint64) uint64 {
		if v == 0 {
			return 0
		}
		if _, ok := seen[v]; !ok {
			seen[v] = uint64(len(seen) + 1)
		}
		return seen[v]
	}
	s.nodeTr.ForEachSorted(func(ev trace.Event) bool {
		ev.ID, ev.Reseed = renumber(ids, ev.ID), renumber(gens, ev.Reseed)
		err = enc.Encode(ev)
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	visits := map[fault.Point]uint64{}
	for _, pt := range []fault.Point{
		fault.PointMemberCrash, fault.PointMemberRestart, fault.PointMemberPartition,
		fault.PointGossipDrop, fault.PointFetchDrop, fault.PointSnapshotCorrupt,
	} {
		visits[pt] = s.c.faults.Visits(pt)
	}
	if err := enc.Encode(map[string]any{"fault_visits": visits, "fault_trace": s.c.faults.TraceString()}); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "timeline.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("timeline differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}
