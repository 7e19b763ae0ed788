package cluster

import (
	"bytes"
	"os"
	"strconv"
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/fault"
	"seuss/internal/metrics"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/trace"
	"seuss/internal/workload"
)

// faultSeed honors the CI fault-matrix seed (SEUSS_FAULT_SEED),
// defaulting to 1.
func faultSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("SEUSS_FAULT_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SEUSS_FAULT_SEED %q: %v", s, err)
		}
		return n
	}
	return 1
}

// otherMember returns the ID of a cluster member not in exclude.
func otherMember(t *testing.T, c *Cluster, exclude ...int) int {
	t.Helper()
	for _, m := range c.Members() {
		skip := false
		for _, e := range exclude {
			if m.ID == e {
				skip = true
			}
		}
		if !skip {
			return m.ID
		}
	}
	t.Fatal("no member left")
	return -1
}

// stackBytes snapshots a lineage's full on-disk stack from one member's
// tier: layer key -> a private copy of the encoded bytes.
func stackBytes(t *testing.T, m *Member, lineage string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, key := range m.Store.Stack(lineage) {
		data, err := m.Store.Get(key)
		if err != nil {
			t.Fatalf("member %d stack read %s: %v", m.ID, key, err)
		}
		out[key] = append([]byte(nil), data...)
	}
	if len(out) == 0 {
		t.Fatalf("member %d holds no stack for %s", m.ID, lineage)
	}
	return out
}

// failoverScenario is one three-member fabric cluster with a recorder
// and tracers attached, driven through every event the cluster accounts.
// Its spine is the lifecycle acceptance script — kill the sole live RAM
// holder of a hot lineage mid-invocation, fail over, orphan the lineage,
// let the repair pass restore it byte-identical — extended with a
// retransmitted and a rejected fabric fetch, a planted stale directory
// entry, two dropped heartbeats, a lineage with no disk copy, a failed
// re-replication and a partition/heal. It is the shared script of
// TestMemberCrashFailoverAndRepair (the assertions in run),
// TestClusterStatsDeriveFromLedger and TestClusterTimelineGolden.
type failoverScenario struct {
	c   *Cluster
	eng *sim.Engine
	rec *metrics.Recorder
	// tr receives the cluster's events, whose IDs are member IDs; nodeTr
	// the members', whose IDs are process-global request IDs.
	tr, nodeTr *trace.Tracer
}

// failoverFaults schedules each fabric-level fault point. Visit numbers
// are positions in failoverScenario.run: gossip-drop is consulted once
// per live member per round in ID order, so visits 3 and 6 are member
// 2's exchanges in rounds 1 and 2; fetch-drop and snapshot-corrupt are
// consulted once per layer actually shipped.
var failoverFaults = map[fault.Point][]uint64{
	fault.PointGossipDrop:      {3, 6},
	fault.PointFetchDrop:       {1},
	fault.PointSnapshotCorrupt: {3, 5},
}

func newFailoverScenario(t *testing.T) *failoverScenario {
	t.Helper()
	s := &failoverScenario{rec: metrics.NewRecorder(), tr: trace.New(0), nodeTr: trace.New(0)}
	nc := core.DefaultConfig()
	nc.Tracer = s.nodeTr
	s.c, s.eng = newCluster(t, Config{
		Nodes: 3, Policy: PolicyMigrate, SnapDir: t.TempDir(), NodeConfig: nc,
		GossipInterval: time.Nanosecond, // every invocation is a heartbeat round
		MaxRetries:     2,
		RejoinLazy:     true, // restarts come back with an empty RAM tier
		Metrics:        s.rec,
		Tracer:         s.tr,
		Faults:         fault.Config{Schedule: failoverFaults},
	})
	return s
}

// restartLazily crashes member id and rejoins it with an empty RAM tier.
func (s *failoverScenario) restartLazily(t *testing.T, id int) {
	t.Helper()
	if !s.c.Crash(id) {
		t.Fatalf("Crash(%d) refused", id)
	}
	s.eng.Go("restart", func(p *sim.Proc) {
		if err := s.c.Restart(p, id); err != nil {
			t.Errorf("restart %d: %v", id, err)
		}
	})
	s.eng.Run()
}

// untilDead drives heartbeat rounds with unrelated traffic until one
// more member has been declared dead.
func (s *failoverScenario) untilDead(t *testing.T) {
	t.Helper()
	filler := core.Request{Key: "filler", Source: workload.NOPSource, Args: "{}"}
	dead := s.c.Stats().DeadMembers
	for i := 0; i < 12 && s.c.Stats().DeadMembers == dead; i++ {
		invoke(t, s.c, s.eng, filler)
	}
	if s.c.Stats().DeadMembers == dead {
		t.Fatalf("no member declared dead: %+v", s.c.Stats())
	}
}

func (s *failoverScenario) run(t *testing.T) {
	t.Helper()
	c, eng := s.c, s.eng
	req := core.Request{Key: "hotfn", Source: workload.CPUBoundSource(20), Args: "{}"}
	invoke(t, c, eng, req) // cold, on node 0
	overload(t, c, eng, req, 8)

	holders := c.Holders("hotfn")
	if len(holders) < 2 || holders[0] != 0 {
		t.Fatalf("holders after overload = %v, want node 0 plus a replica", holders)
	}
	replica := holders[1]
	third := otherMember(t, c, 0, replica)
	// The bytes the repair must later reproduce, recorded from the
	// original holder's tier before anything dies.
	want := stackBytes(t, c.Members()[0], "fn/hotfn")

	// Crash node 0 and bring it back lazily: its disk tier survives but
	// its RAM copy is gone — the replica is now the sole live RAM holder.
	s.restartLazily(t, 0)
	if got := c.Holders("hotfn"); len(got) != 1 || got[0] != replica {
		t.Fatalf("holders after lazy rejoin = %v, want sole holder %d", got, replica)
	}

	// (a) Kill the sole holder while it is serving: the in-flight
	// invocation must fail over and succeed on a live member.
	var res core.Result
	var served int
	var invokeErr error
	eng.Go("client", func(p *sim.Proc) { res, served, invokeErr = c.Invoke(p, req) })
	eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // mid-execution of the 20 ms body
		if !c.Crash(replica) {
			t.Errorf("Crash(%d) refused", replica)
		}
	})
	eng.Run()
	if invokeErr != nil {
		t.Fatalf("failover lost the invocation: %v", invokeErr)
	}
	if served == replica {
		t.Fatalf("retry re-picked the crashed member %d", replica)
	}
	if res.Output == "" {
		t.Error("failover produced no output")
	}
	st := c.Stats()
	if st.Failovers == 0 {
		t.Error("no failover counted for the mid-invocation crash")
	}
	if st.MemberCrashes != 2 {
		t.Errorf("MemberCrashes = %d, want 2", st.MemberCrashes)
	}

	// Orphan the lineage outright: crash the member the failover landed
	// on and bring it back lazily, so no live member holds hotfn in RAM
	// and the only live copy is node 0's disk tier.
	s.restartLazily(t, served)

	// Drive heartbeat rounds until the dead replica's missed heartbeats
	// pass DeadAfter; the declaration schedules the repair pass.
	s.untilDead(t)
	st = c.Stats()
	if st.SuspectedMembers == 0 || st.DeadMembers == 0 {
		t.Fatalf("replica never declared dead: suspected=%d dead=%d", st.SuspectedMembers, st.DeadMembers)
	}

	// (b) The repair pass ran on the sim clock: the lineage is promoted
	// back into RAM on the disk-tier survivor and re-fetched onto the
	// third member, byte-identical to the original export.
	if st.RepairsPromoted == 0 {
		t.Fatal("repair promoted nothing despite an orphaned lineage")
	}
	if st.RepairsRefetched == 0 {
		t.Fatal("repair restored no disk redundancy")
	}
	if !c.aliveResident("hotfn") {
		t.Error("no live member holds hotfn after repair")
	}
	got := stackBytes(t, c.Members()[third], "fn/hotfn")
	if len(got) != len(want) {
		t.Fatalf("repaired stack has %d layers, original %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("repaired stack missing layer %s", key)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("layer %s differs from the original export (%d vs %d bytes)", key, len(g), len(w))
		}
	}

	// The repaired lineage serves warm — the cluster never pays a second
	// cluster cold for it.
	colds := c.Stats().ClusterColds
	res2, n2 := invoke(t, c, eng, req)
	if res2.Path == core.PathCold || c.Stats().ClusterColds != colds {
		t.Errorf("post-repair invocation went cold (path %v, node %d)", res2.Path, n2)
	}

	// A second lineage replicates under load; the diff layer corrupts
	// on the wire, the destination tier rejects it and the holder serves;
	// the next burst's fetch goes through.
	aux := core.Request{Key: "aux", Source: workload.CPUBoundSource(20), Args: "{}"}
	invoke(t, c, eng, aux)
	overload(t, c, eng, aux, 8)
	overload(t, c, eng, aux, 8)
	st = c.Stats()
	if st.FailedFetches != 1 || st.Fetches < 2 {
		t.Fatalf("aux replication: failed=%d fetches=%d, want 1 and >= 2", st.FailedFetches, st.Fetches)
	}

	// A directory entry the view believes and ground truth does not: the
	// lie is planted in the instant after a round, so no gossip repairs
	// it before placement verifies, prunes and re-places.
	ghost := core.Request{Key: "ghost", Source: workload.NOPSource, Args: "{}"}
	eng.Go("client", func(p *sim.Proc) {
		if _, _, err := c.Invoke(p, aux); err != nil {
			t.Error(err)
		}
	})
	eng.Go("ghost-client", func(p *sim.Proc) {
		c.View().MarkResident(third, "ghost")
		if _, _, err := c.Invoke(p, ghost); err != nil {
			t.Error(err)
		}
	})
	eng.Run()

	// One lineage with no disk copy anywhere, on a member about to be cut
	// off; the dead replica rejoins; the other survivor loses its RAM.
	doomed := core.Request{Key: "doomed", Source: workload.NOPSource, Args: "{}"}
	_, cut := invoke(t, c, eng, doomed)
	eng.Go("restart", func(p *sim.Proc) {
		if err := c.Restart(p, replica); err != nil {
			t.Errorf("restart %d: %v", replica, err)
		}
	})
	eng.Run()
	s.restartLazily(t, otherMember(t, c, replica, cut))
	if !c.Partition(cut) {
		t.Fatalf("Partition(%d) refused", cut)
	}
	// The cut-off member is declared dead and the repair pass finds all
	// three outcomes: hotfn and aux promote on a disk-tier survivor, aux's
	// re-replication to the rejoined member corrupts on the wire, and
	// doomed has no live copy at all.
	s.untilDead(t)
	st = c.Stats()
	if st.RepairsPromoted < 3 || st.RepairsFailed != 1 || st.RepairsCold == 0 {
		t.Fatalf("second repair pass: %+v", st)
	}
	if !c.Heal(cut) {
		t.Fatalf("Heal(%d) refused", cut)
	}
	for _, r := range []core.Request{req, aux, doomed} {
		if res, n := invoke(t, c, eng, r); res.Output == "" {
			t.Errorf("%s stranded on node %d after heal", r.Key, n)
		}
	}
}

// TestMemberCrashFailoverAndRepair is the lifecycle acceptance test: it
// kills the sole live RAM holder of a hot lineage and proves that
// (a) the in-flight invocation fails over, contained, and succeeds on a
// live member within the retry budget, and (b) the repair pass restores
// the lineage from the disk-tier survivor — promoted back into RAM and
// re-fetched to a fresh member with byte-identical layers.
func TestMemberCrashFailoverAndRepair(t *testing.T) {
	newFailoverScenario(t).run(t)
}

// TestRepairColdWhenNoDiskSurvivor: when every disk copy of an orphaned
// lineage is unreachable, the repair records the "cold" outcome and the
// next request is never stranded — it cold-boots on a live member.
func TestRepairColdWhenNoDiskSurvivor(t *testing.T) {
	c, eng := newCluster(t, Config{
		Nodes: 3, Policy: PolicyMigrate, SnapDir: t.TempDir(),
		GossipInterval: time.Nanosecond, MaxRetries: 2,
	})
	req := core.Request{Key: "doomed", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, req) // cold on node 0; tier copy on node 0 only
	if !c.Crash(0) {
		t.Fatal("Crash(0) refused")
	}
	filler := core.Request{Key: "filler", Source: workload.NOPSource, Args: "{}"}
	for i := 0; i < 12 && c.Stats().DeadMembers == 0; i++ {
		invoke(t, c, eng, filler)
	}
	st := c.Stats()
	if st.DeadMembers == 0 {
		t.Fatal("crashed member never declared dead")
	}
	if st.RepairsCold == 0 {
		t.Fatalf("repair outcome not cold: %+v", st)
	}
	if st.RepairsPromoted != 0 || st.RepairsRefetched != 0 {
		t.Errorf("repair invented a copy from nowhere: %+v", st)
	}
	res, node := invoke(t, c, eng, req)
	if res.Output == "" {
		t.Fatal("request stranded after total loss")
	}
	if !c.Members()[node].alive() {
		t.Fatalf("served by non-alive member %d", node)
	}
}

// TestGossipDropRunsLivenessStateMachine drives consecutive gossip-drop
// rounds against one member's exchange (the detector cannot tell a
// lossy wire from a dead peer): the member walks alive → suspect →
// dead, its stale view entries are pruned and counted, placements keep
// landing on a live holder throughout, and — because ground truth says
// the member never died — the repair pass does no damage and the next
// landed heartbeat revives it.
func TestGossipDropRunsLivenessStateMachine(t *testing.T) {
	rec := metrics.NewRecorder()
	c, eng := newCluster(t, Config{
		Nodes: 2, GossipInterval: time.Nanosecond, Metrics: rec,
		Faults: fault.Config{
			// Drops are consulted once per alive member per round in ID
			// order: even visits are node 1's exchanges. Rounds 2-5 drop
			// node 1 only — four consecutive misses, DeadAfter's default.
			Schedule: map[fault.Point][]uint64{fault.PointGossipDrop: {4, 6, 8, 10}},
		},
	})
	a := core.Request{Key: "a", Source: workload.NOPSource, Args: "{}"}
	b := core.Request{Key: "b", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, a) // round 1: both exchanges land; cold on node 0
	_, nb := invoke(t, c, eng, b)
	if nb != 1 {
		t.Fatalf("b cold on node %d, want 1", nb)
	}

	// Rounds keep dropping node 1's exchange; b's believed holder goes
	// suspect, so placement skips it and serves b on live node 0 — cold
	// once (node 0 never held it), then warm.
	for i := 0; i < 8 && c.Stats().DeadMembers == 0; i++ {
		res, n := invoke(t, c, eng, b)
		if n != 0 {
			t.Fatalf("invocation %d placed on node %d while it was suspect/dead, want 0", i, n)
		}
		if res.Output == "" {
			t.Fatalf("invocation %d lost", i)
		}
	}
	st := c.Stats()
	if st.SuspectedMembers != 1 || st.DeadMembers != 1 {
		t.Fatalf("state machine: suspected=%d dead=%d, want 1, 1", st.SuspectedMembers, st.DeadMembers)
	}
	if st.GossipDrops != 4 {
		t.Errorf("GossipDrops = %d, want the 4 scheduled", st.GossipDrops)
	}
	if got, fired := rec.Counters()[metrics.CtrFaultsInjected], int64(c.faults.TotalFired()); got != fired || fired != 4 {
		t.Errorf("seuss_faults_injected_total = %d, injector fired %d, want both 4", got, fired)
	}
	if st.StaleDirectory == 0 {
		t.Error("death declaration pruned nothing; node 1's entries should count as stale")
	}
	// False positive: node 1 is actually fine, so the scheduled repair
	// must find every lineage still live-resident and touch nothing.
	if st.RepairsPromoted != 0 || st.RepairsRefetched != 0 || st.RepairsCold != 0 || st.RepairsFailed != 0 {
		t.Errorf("repair acted on a false-positive death: %+v", st)
	}
	// The schedule is exhausted: the next round lands node 1's report
	// and revives it.
	invoke(t, c, eng, a)
	if c.Stats().RevivedMembers == 0 {
		t.Error("landed heartbeat did not revive the falsely-dead member")
	}
	if s := c.View().State(1); s != sched.StateAlive {
		t.Errorf("node 1 view state = %v after revival, want alive", s)
	}
}

// TestPartitionHealLifecycle: a partitioned member keeps running but is
// unreachable — placements avoid it, it is eventually declared dead —
// and a heal resyncs its manifest and revives it with its RAM state
// intact.
func TestPartitionHealLifecycle(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 2, GossipInterval: time.Nanosecond, MaxRetries: 1})
	req := core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"}
	_, home := invoke(t, c, eng, req)

	if !c.Partition(home) {
		t.Fatalf("Partition(%d) refused", home)
	}
	if c.Partition(home) {
		t.Error("double partition accepted")
	}
	// The partitioned member is skipped: requests for its function serve
	// on the other node instead of stranding.
	for i := 0; i < 8 && c.Stats().DeadMembers == 0; i++ {
		_, n := invoke(t, c, eng, req)
		if n == home {
			t.Fatalf("invocation %d reached the partitioned member", i)
		}
	}
	st := c.Stats()
	if st.MemberPartitions != 1 || st.DeadMembers != 1 {
		t.Fatalf("partitions=%d dead=%d, want 1, 1", st.MemberPartitions, st.DeadMembers)
	}

	if !c.Heal(home) {
		t.Fatalf("Heal(%d) refused", home)
	}
	if c.Heal(home) {
		t.Error("double heal accepted")
	}
	// RAM state survived the partition: the healed member's snapshot is
	// back in the view without any transfer or repair.
	if !c.Members()[home].Node.HasSnapshot("fn") {
		t.Error("partition destroyed RAM state")
	}
	if !c.View().Resident(home, "fn") {
		t.Error("heal did not resync the member's manifest")
	}
	if c.Stats().RevivedMembers == 0 {
		t.Error("heal did not revive the member")
	}
	states := c.MemberStates()
	if states[home].State != "alive" || !states[home].Up || states[home].Partitioned {
		t.Errorf("member state after heal = %+v", states[home])
	}
}

// TestRestartGuards: Restart refuses an up member (partitions heal via
// Heal), Crash refuses a down member, and a restart without RejoinLazy
// prewarms the surviving disk tier so the function serves warm with no
// transfer.
func TestRestartGuards(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 2, Policy: PolicyMigrate, SnapDir: t.TempDir()})
	req := core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"}
	_, home := invoke(t, c, eng, req)
	overload(t, c, eng, req, 8) // flushes the lineage to home's tier

	var err error
	eng.Go("restart-up", func(p *sim.Proc) { err = c.Restart(p, home) })
	eng.Run()
	if err == nil {
		t.Error("Restart accepted an up member")
	}
	if !c.Crash(home) {
		t.Fatal("Crash refused an up member")
	}
	if c.Crash(home) {
		t.Error("Crash accepted a down member")
	}
	if c.Members()[home].Node != nil {
		t.Error("crashed member kept its node")
	}
	eng.Go("restart", func(p *sim.Proc) { err = c.Restart(p, home) })
	eng.Run()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	// Eager rejoin: the tier's lineages are promoted before traffic.
	if !c.Members()[home].Node.HasSnapshot("fn") {
		t.Error("restart did not prewarm the surviving disk tier")
	}
	if !c.View().Resident(home, "fn") {
		t.Error("rejoin resync did not advertise the prewarmed lineage")
	}
	if c.Stats().MemberRestarts != 1 {
		t.Errorf("MemberRestarts = %d, want 1", c.Stats().MemberRestarts)
	}
}

// TestMemberCrashDuringFetch: a member dying while layers are on the
// wire aborts the transfer, contained; every invocation still succeeds
// via fallback and failover.
func TestMemberCrashDuringFetch(t *testing.T) {
	c, eng := newCluster(t, Config{
		Nodes: 2, Policy: PolicyMigrate, SnapDir: t.TempDir(),
		GossipInterval: time.Hour, // lifecycle points stay quiet; the test hook crashes
		MaxRetries:     3,
	})
	req := core.Request{Key: "hotfn", Source: workload.CPUBoundSource(20), Args: "{}"}
	invoke(t, c, eng, req) // cold on node 0

	done := 0
	for i := 0; i < 8; i++ {
		eng.Go("client", func(p *sim.Proc) {
			if _, _, err := c.Invoke(p, req); err != nil {
				t.Error(err)
				return
			}
			done++
		})
	}
	// The overload triggers a layer fetch from node 0 almost
	// immediately; kill the source while the stack is on the wire.
	eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(200 * time.Microsecond)
		if !c.Crash(0) {
			t.Error("Crash(0) refused")
		}
	})
	eng.Run()
	if done != 8 {
		t.Fatalf("served %d/8 with the fetch source crashing mid-transfer", done)
	}
	st := c.Stats()
	if st.MemberCrashes != 1 {
		t.Errorf("MemberCrashes = %d, want 1", st.MemberCrashes)
	}
	if st.FailedFetches == 0 && st.Failovers == 0 {
		t.Error("crash mid-fetch left no trace: no failed fetch, no failover")
	}
}

// TestLifecycleFaultDeterminism: the same seed replays the same
// lifecycle chaos — crashes, partitions, restarts, failovers, repairs —
// to identical cluster stats, and every surfaced error is contained.
// Honors the CI fault-matrix seed.
func TestLifecycleFaultDeterminism(t *testing.T) {
	seed := faultSeed(t)
	run := func() Stats {
		eng := sim.NewEngine()
		c, err := New(eng, Config{
			Nodes: 3, Policy: PolicyMigrate, SnapDir: t.TempDir(),
			GossipInterval: time.Millisecond,
			MaxRetries:     3,
			Faults: fault.Config{
				Seed: seed, Rate: 0.05,
				Points: []fault.Point{
					fault.PointMemberCrash, fault.PointMemberRestart, fault.PointMemberPartition,
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			key := []string{"a/fn", "b/fn", "c/fn"}[i%3]
			eng.Go("client", func(p *sim.Proc) {
				_, _, err := c.Invoke(p, core.Request{Key: key, Source: workload.CPUBoundSource(5), Args: "{}"})
				if err != nil && !fault.IsContained(err) {
					t.Errorf("uncontained error under lifecycle chaos: %v", err)
				}
			})
			eng.Run()
		}
		return c.Stats()
	}
	st1 := run()
	st2 := run()
	if st1 != st2 {
		t.Fatalf("same seed, different lifecycle stats:\n%+v\n%+v", st1, st2)
	}
	if st1.MemberCrashes+st1.MemberPartitions == 0 {
		t.Skipf("seed %d injected no lifecycle faults in 30 invocations", seed)
	}
}
