package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"seuss/internal/fault"
	"seuss/internal/mem"
	"seuss/internal/metrics"
	"seuss/internal/sim"
	"seuss/internal/snapstore"
	"seuss/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/timeline.golden from the current run")

// growSource touches guest heap in proportion to args.n, so one lineage
// can be restored with a small and a large working set.
const growSource = `function main(args) {
	var a = [];
	for (var i = 0; i < args.n; i++) { a.push("a-sixty-four-byte-string-to-fill-the-guest-heap-page-by-page-" + i); }
	return {n: a.length};
}`

const ioSource = `function main(args) { return {body: http.get("http://ext/")}; }`

const spinSource = `function main(args) { while (true) { var x = 1; } }`

// ledgerFaults schedules each of the node's fault points once. Visit
// numbers are positions in ledgerScenario.run; a step that moves a
// visit moves the fault with it, which the assertions there catch.
var ledgerFaults = map[fault.Point][]uint64{
	fault.PointUCCrash:       {5},
	fault.PointEntropyStale:  {3},
	fault.PointProxyDrop:     {1},
	fault.PointWSCorrupt:     {3},
	fault.PointPolicyMisfire: {5},
}

// ledgerScenario is one node with every optional subsystem attached,
// driven through every event the node accounts: each invocation path,
// each contained failure, the reaper's three stages, the disk tier in
// both directions, working-set record/replay/merge/corruption, and the
// three rungs of the pressure ladder. It is the shared script of
// TestStatsDeriveFromLedger (every Stats field against the metrics
// ledger) and TestTimelineGolden (the trace, byte for byte).
type ledgerScenario struct {
	t     *testing.T
	n     *Node
	eng   *sim.Engine
	pol   *stubPolicy
	store *snapstore.Store
	rec   *metrics.Recorder
	tr    *trace.Tracer
}

func newLedgerScenario(t *testing.T) *ledgerScenario {
	t.Helper()
	s := &ledgerScenario{
		t:     t,
		pol:   &stubPolicy{ka: 30 * time.Second, ska: 60 * time.Second, prewarmAfter: 90 * time.Second},
		store: newTierStore(t, -1),
		rec:   metrics.NewRecorder(),
		tr:    trace.New(0),
	}
	cfg := DefaultConfig()
	cfg.MemoryBytes = 256 << 20
	// ≈131 frames: less than one deploy needs (≈400), so in the pressure
	// phase the deploy runs out of memory before the threshold reclaim
	// has emptied the idle cache, and the ladder has something to do.
	cfg.OOMThreshold = 0.002
	cfg.MaxIdlePerFn = 1
	cfg.Tracer, cfg.Metrics, cfg.SnapStore, cfg.Policy = s.tr, s.rec, s.store, s.pol
	cfg.HTTPHandler = func(string) (string, time.Duration, error) { return "OK", 20 * time.Millisecond, nil }
	cfg.Faults = fault.New(fault.Config{Schedule: ledgerFaults})
	s.n, s.eng = newTestNode(t, cfg)
	return s
}

// invoke serves one request and requires the path it took.
func (s *ledgerScenario) invoke(key, source, args string, want Path) {
	s.t.Helper()
	res, err := invoke(s.t, s.n, s.eng, Request{Key: key, Source: source, Args: args})
	if err != nil || res.Path != want {
		s.t.Fatalf("%s: path=%v err=%v, want %v", key, res.Path, err, want)
	}
}

// tick moves the clock forward by d and runs one reaper pass there.
func (s *ledgerScenario) tick(d time.Duration) TickStats {
	s.t.Helper()
	return policyTick(s.t, s.n, s.eng, time.Duration(s.eng.Now())+d)
}

// occupy allocates frames until only leave remain — other tenants'
// memory — and returns the function that gives them back.
func (s *ledgerScenario) occupy(leave int64) (release func()) {
	s.t.Helper()
	var held []mem.Frame
	for s.n.store.Available() > leave {
		f, err := s.n.store.Alloc()
		if err != nil {
			s.t.Fatal(err)
		}
		held = append(held, f)
	}
	return func() {
		for _, f := range held {
			s.n.store.DecRef(f)
		}
	}
}

func (s *ledgerScenario) run() {
	t, n, eng := s.t, s.n, s.eng
	t.Helper()

	// Paths and contained failures.
	s.invoke("fn", growSource, `{"n":0}`, PathCold)
	s.invoke("fn", growSource, `{"n":0}`, PathHot)
	// One hot, one warm, both returning to an idle cap of one.
	for i := 0; i < 2; i++ {
		eng.Go("client", func(p *sim.Proc) {
			if _, err := n.Invoke(p, Request{Key: "fn", Source: growSource, Args: `{"n":0}`}); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()
	if _, err := invoke(t, n, eng, Request{Key: "fn", Source: growSource, Args: `{"n":0}`}); !errors.Is(err, ErrUCCrashed) {
		t.Fatalf("scheduled uc-crash: err=%v", err)
	}
	s.invoke("fn", growSource, `{"n":0}`, PathWarm) // deploys with the entropy-stale fault
	if _, err := invoke(t, n, eng, Request{Key: "spin", Source: spinSource, Args: "{}", Deadline: 2 * time.Millisecond}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline kill: err=%v", err)
	}
	s.invoke("io", ioSource, "{}", PathCold) // its one packet is dropped once

	// The reaper: expire, scale to zero, prewarm (hit and miss).
	if ts := s.tick(40 * time.Second); ts.ExpiredUCs != 2 {
		t.Fatalf("expiry tick = %+v", ts)
	}
	if ts := s.tick(30 * time.Second); ts.DemotedLineages != 3 {
		t.Fatalf("scale-to-zero tick = %+v", ts)
	}
	s.invoke("fn", growSource, `{"n":0}`, PathLukewarm) // first restore: records
	s.store.Delete("fn/spin")                           // its prewarm will miss
	if ts := s.tick(95 * time.Second); ts.Prewarmed != 1 || ts.DemotedLineages != 1 {
		t.Fatalf("prewarm tick = %+v", ts)
	}
	s.invoke("fn", growSource, `{"n":4000}`, PathLukewarm) // prefetched; drifts, so merges
	if ts := s.tick(135 * time.Second); ts.DemotedLineages != 2 {
		t.Fatalf("second scale-to-zero tick = %+v", ts)
	}
	s.invoke("fn", growSource, `{"n":0}`, PathLukewarm) // record corrupts on read
	if ts := s.tick(time.Second); ts.ExpiredUCs != 1 || ts.DemotedLineages != 1 || ts.Prewarmed != 1 {
		t.Fatalf("misfire tick = %+v", ts)
	}

	// The pressure ladder. No new prewarms (this tick runs the last due
	// ones); idle UCs expire, snapshots stay, so each rung starts from a
	// known cache.
	s.pol.prewarmAfter, s.pol.ska = 0, -1
	s.invoke("p1", nopSource, "{}", PathCold)
	s.invoke("p2", nopSource, "{}", PathCold)
	s.tick(100 * time.Second)
	s.invoke("p2", nopSource, "{}", PathWarm)
	// Rung 1: p1's deploy does not fit until p2's idle UC is reclaimed.
	release := s.occupy(250)
	s.invoke("p1", nopSource, "{}", PathWarm)
	release()
	// Rung 2: nothing idle; the coldest snapshots make the room.
	s.tick(40 * time.Second)
	release = s.occupy(250)
	s.invoke("p2", nopSource, "{}", PathWarm)
	release()
	// Rung 3: only io and p2 stay resident; io is in flight, so the
	// ladder may not evict it and p2's warm deploy saturates (300 µs in:
	// a deploy charges its time, then allocates). The other tenants let
	// go while the fallback demotes p2's snapshot (≈500 µs more), and the
	// cold start has room.
	s.pol.ska = time.Second
	s.tick(40 * time.Second)
	s.invoke("io", ioSource, "{}", PathLukewarm)
	s.invoke("p2", nopSource, "{}", PathLukewarm)
	s.pol.ska = -1
	s.tick(40 * time.Second)
	eng.Go("io-client", func(p *sim.Proc) {
		if _, err := n.Invoke(p, Request{Key: "io", Source: ioSource, Args: "{}"}); err != nil {
			t.Error(err)
		}
	})
	eng.Go("client", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		release := s.occupy(250)
		eng.Go("tenants", func(p *sim.Proc) {
			p.Sleep(700 * time.Microsecond)
			release()
		})
		res, err := n.Invoke(p, Request{Key: "p2", Source: nopSource, Args: "{}"})
		if err != nil || res.Path != PathCold {
			t.Errorf("cold fallback: path=%v err=%v", res.Path, err)
		}
	})
	eng.Run()
}

// TestStatsDeriveFromLedger: every core.Stats field equals its
// expression over the node's metrics counters (FaultsInjected also the
// injector's own fired count), and the scenario leaves none of them zero — so a field that
// falls out of the mapping, or an event counted in one ledger and not
// the other, fails here.
func TestStatsDeriveFromLedger(t *testing.T) {
	s := newLedgerScenario(t)
	s.run()
	snap := s.rec.Snapshot()
	c := snap.Counter
	want := map[string]int64{
		"Cold":                      c(metrics.CtrColdInvocations),
		"Warm":                      c(metrics.CtrWarmInvocations),
		"Hot":                       c(metrics.CtrHotInvocations),
		"Lukewarm":                  c(metrics.CtrLukewarmInvocations),
		"Errors":                    c(metrics.CtrInvokeErrors),
		"UCsDeployed":               c(metrics.CtrUCsDeployed),
		"UCsReclaimed":              c(metrics.CtrUCsReclaimed),
		"SnapshotsCaptured":         c(metrics.CtrSnapshotsCaptured),
		"SnapshotsEvicted":          c(metrics.CtrSnapshotsEvicted),
		"UCCrashes":                 c(metrics.CtrUCCrashes),
		"DeadlinesExceeded":         c(metrics.CtrDeadlinesExceeded),
		"PressureIdleReclaims":      c(metrics.CtrPressureIdleReclaims),
		"PressureSnapshotEvictions": c(metrics.CtrPressureSnapshotEvictions),
		"PressureColdFallbacks":     c(metrics.CtrPressureColdFallbacks),
		"FaultsInjected":            int64(s.n.cfg.Faults.TotalFired()),
		"TierHits":                  c(metrics.CtrTierHits),
		"TierMisses":                c(metrics.CtrTierMisses),
		"SnapshotsDemoted":          c(metrics.CtrTierDemotions),
		"SnapshotsPromoted":         c(metrics.CtrTierPromotionsLukewarm) + c(metrics.CtrTierPromotionsPrewarm),
		"SnapshotsPrewarmed":        c(metrics.CtrTierPromotionsPrewarm),
		"WSRecorded":                c(metrics.CtrWSRecordsRecorded),
		"WSMerged":                  c(metrics.CtrWSRecordsMerged),
		"WSCorrupt":                 c(metrics.CtrWSRecordsCorrupt),
		"WSPrefetchedPages":         c(metrics.CtrWSPrefetchedPages),
		"WSCoverageHits":            c(metrics.CtrWSCoverageHits),
		"WSCoverageMisses":          c(metrics.CtrWSCoverageMisses),
		"PolicyExpirations":         c(metrics.CtrPolicyExpirations),
		"PolicyPrewarms":            c(metrics.CtrPolicyPrewarmsPromoted),
		"PolicyPrewarmMisses":       c(metrics.CtrPolicyPrewarmsMiss),
		"PolicyPrewarmMisfires":     c(metrics.CtrPolicyPrewarmsMisfire),
	}
	got := reflect.ValueOf(s.n.Stats())
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
	if f := c(metrics.CtrFaultsInjected); f != want["FaultsInjected"] {
		t.Errorf("seuss_faults_injected_total = %d, injector fired %d", f, want["FaultsInjected"])
	}
}

// TestStatsOfMapsEveryField feeds StatsOf a distinct prime per counter.
// No field may come out zero (its mapping was dropped) and no two may be
// equal (two fields read one counter): the only field that is not one
// counter is SnapshotsPromoted, a sum of two odd primes.
func TestStatsOfMapsEveryField(t *testing.T) {
	var c metrics.Counters
	for i, p := 0, int64(2); i < len(c); p++ {
		prime := true
		for d := int64(2); d*d <= p; d++ {
			prime = prime && p%d != 0
		}
		if prime {
			c[i] = p
			i++
		}
	}
	got := reflect.ValueOf(StatsOf(c))
	seen := map[int64]string{}
	for i := 0; i < got.NumField(); i++ {
		name, v := got.Type().Field(i).Name, got.Field(i).Int()
		if v == 0 {
			t.Errorf("Stats.%s = 0: StatsOf does not map it", name)
		}
		if other, dup := seen[v]; dup {
			t.Errorf("Stats.%s and Stats.%s both read %d", name, other, v)
		}
		seen[v] = name
	}
}

// TestTimelineGolden pins the scenario's trace: the JSONL timeline with
// request ids and deploy generations (both process-global sequences)
// renumbered by first appearance, then how often each fault point was
// consulted. Regenerate with `go test ./internal/core -run
// TestTimelineGolden -update`.
func TestTimelineGolden(t *testing.T) {
	s := newLedgerScenario(t)
	s.run()
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
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
	// What Tracer.WriteJSONL writes, with the two sequences rewritten.
	var err error
	s.tr.ForEachSorted(func(ev trace.Event) bool {
		ev.ID, ev.Reseed = renumber(ids, ev.ID), renumber(gens, ev.Reseed)
		err = enc.Encode(ev)
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	visits := map[fault.Point]uint64{}
	for pt := range ledgerFaults {
		visits[pt] = s.n.cfg.Faults.Visits(pt)
	}
	if err := enc.Encode(map[string]any{"fault_visits": visits, "fault_trace": s.n.cfg.Faults.TraceString()}); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "timeline.golden")
	if *updateGolden {
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
