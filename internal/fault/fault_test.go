package fault

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
)

// testSeed honors the CI fault-matrix seed so the same suite runs
// under several fixed seeds (SEUSS_FAULT_SEED), defaulting to 1.
func testSeed(t *testing.T) int64 {
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

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if in.Fire(PointUCCrash) {
			t.Fatal("nil injector fired")
		}
	}
	if in.Visits(PointUCCrash) != 0 || in.Fired(PointUCCrash) != 0 || in.TotalFired() != 0 {
		t.Error("nil injector counted something")
	}
	if in.Trace() != nil || in.TraceString() != "" {
		t.Error("nil injector has a trace")
	}
}

func TestDisabledConfigReturnsNil(t *testing.T) {
	if New(Config{Seed: 42}) != nil {
		t.Error("config with no rate and no schedule should build the nil injector")
	}
	if !(Config{Rate: 0.1}).enabled() {
		t.Error("rate should enable")
	}
	if !(Config{Schedule: map[Point][]uint64{PointUCCrash: {1}}}).enabled() {
		t.Error("schedule should enable")
	}
}

func TestFaultScheduleFiresExactVisits(t *testing.T) {
	in := New(Config{Schedule: map[Point][]uint64{PointUCCrash: {2, 5}}})
	var fired []int
	for i := 1; i <= 6; i++ {
		if in.Fire(PointUCCrash) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Errorf("fired on visits %v, want [2 5]", fired)
	}
	// A scheduled point never also fires randomly; an unscheduled point
	// in a schedule-only config never fires.
	for i := 0; i < 50; i++ {
		if in.Fire(PointShardStall) {
			t.Fatal("unscheduled point fired in schedule-only config")
		}
	}
}

func TestFaultSeedReproducesIdenticalTrace(t *testing.T) {
	seed := testSeed(t)
	run := func() string {
		in := New(Config{Seed: seed, Rate: 0.3})
		for i := 0; i < 200; i++ {
			in.Fire(PointUCCrash)
			in.Fire(PointShardStall)
			if i%3 == 0 {
				in.Fire(PointProxyDrop)
			}
		}
		return in.TraceString()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different traces:\n%s\n%s", a, b)
	}
	if a == "" {
		t.Fatal("rate 0.3 over 200 visits fired nothing — firing hash broken")
	}
	// Per-point determinism is independent of interleaving with other
	// points.
	solo := New(Config{Seed: seed, Rate: 0.3})
	var soloVisits []uint64
	for i := 0; i < 200; i++ {
		if solo.Fire(PointUCCrash) {
			soloVisits = append(soloVisits, solo.Visits(PointUCCrash))
		}
	}
	mixed := New(Config{Seed: seed, Rate: 0.3})
	var mixedVisits []uint64
	for i := 0; i < 200; i++ {
		mixed.Fire(PointShardStall) // interleaved noise
		if mixed.Fire(PointUCCrash) {
			mixedVisits = append(mixedVisits, mixed.Visits(PointUCCrash))
		}
	}
	if len(soloVisits) != len(mixedVisits) {
		t.Fatalf("interleaving changed firing: %v vs %v", soloVisits, mixedVisits)
	}
	for i := range soloVisits {
		if soloVisits[i] != mixedVisits[i] {
			t.Fatalf("interleaving changed firing visits: %v vs %v", soloVisits, mixedVisits)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	trace := func(seed int64) string {
		in := New(Config{Seed: seed, Rate: 0.25})
		for i := 0; i < 400; i++ {
			in.Fire(PointUCCrash)
		}
		return in.TraceString()
	}
	if trace(1) == trace(2) {
		t.Error("seeds 1 and 2 produced the identical 400-visit trace")
	}
}

func TestChildConfigsFaultIndependently(t *testing.T) {
	base := Config{Seed: testSeed(t), Rate: 0.25}
	trace := func(c Config) string {
		in := New(c)
		for i := 0; i < 300; i++ {
			in.Fire(PointShardStall)
		}
		return in.TraceString()
	}
	if trace(base.Child(0)) == trace(base.Child(1)) {
		t.Error("sibling shards share a firing trace")
	}
	if trace(base.Child(1)) != trace(base.Child(1)) {
		t.Error("child derivation is not deterministic")
	}
}

func TestPointsFilterRestrictsRandomFiring(t *testing.T) {
	in := New(Config{Seed: 7, Rate: 1, Points: []Point{PointUCCrash}})
	if !in.Fire(PointUCCrash) {
		t.Error("enabled point at rate 1 must fire")
	}
	if in.Fire(PointProxyDrop) {
		t.Error("filtered-out point fired")
	}
}

func TestRateOneFiresAlways(t *testing.T) {
	in := New(Config{Seed: 3, Rate: 1})
	for i := 0; i < 64; i++ {
		if !in.Fire(PointUCCrash) {
			t.Fatalf("rate 1 missed on visit %d", i+1)
		}
	}
	if in.Fired(PointUCCrash) != 64 || in.Visits(PointUCCrash) != 64 {
		t.Errorf("counters: fired=%d visits=%d", in.Fired(PointUCCrash), in.Visits(PointUCCrash))
	}
}

func TestRegistryListsBuiltins(t *testing.T) {
	pts := Points()
	want := map[Point]bool{
		PointUCCrash: true, PointSnapshotCorrupt: true,
		PointShardStall: true, PointProxyDrop: true,
	}
	found := 0
	for _, pt := range pts {
		if want[pt] {
			found++
		}
		if Describe(pt) == "" {
			t.Errorf("registered point %q has no description", pt)
		}
	}
	if found != len(want) {
		t.Errorf("builtin points missing from registry: %v", pts)
	}
	Register(Point("custom-test-point"), "test")
	if Describe(Point("custom-test-point")) != "test" {
		t.Error("Register did not take")
	}
	Register(Point("custom-test-point"), "overwrite")
	if Describe(Point("custom-test-point")) != "test" {
		t.Error("Register overwrote an existing description")
	}
}

func TestContainmentMarker(t *testing.T) {
	base := errors.New("uc crashed")
	c := Contain(base)
	if !IsContained(c) {
		t.Fatal("Contain did not mark")
	}
	if !errors.Is(c, base) {
		t.Fatal("Contain broke errors.Is")
	}
	if IsContained(base) {
		t.Error("unmarked error reads as contained")
	}
	if Contain(nil) != nil {
		t.Error("Contain(nil) != nil")
	}
	if Contain(c) != c {
		t.Error("Contain is not idempotent")
	}
	// Wrapping a contained error keeps the mark visible.
	wrapped := &wrapErr{msg: "invoke failed", err: c}
	if !IsContained(wrapped) {
		t.Error("containment lost through wrapping")
	}
}

type wrapErr struct {
	msg string
	err error
}

func (w *wrapErr) Error() string { return w.msg + ": " + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }

// TestFaultPointRosterMatchesDocs walks the live registry and requires
// every point to carry a description and to appear — as `point` — in
// the README fault-point table and in DESIGN.md. Adding a fault point
// without documenting it is a test failure; that's the point: the
// roster must not drift from the docs (same contract as the seuss-node
// flag tests).
func TestFaultPointRosterMatchesDocs(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	// The lifecycle trio must be registered at all — a regression here
	// means the member-failure machinery lost its injection sites.
	roster := map[Point]bool{}
	for _, pt := range Points() {
		roster[pt] = true
	}
	for _, pt := range []Point{PointMemberCrash, PointMemberRestart, PointMemberPartition} {
		if !roster[pt] {
			t.Errorf("lifecycle point %q missing from the registry", pt)
		}
	}
	for _, pt := range Points() {
		if strings.Contains(string(pt), "test") {
			continue // artifacts of sibling tests exercising Register
		}
		if Describe(pt) == "" {
			t.Errorf("point %q has no registry description", pt)
		}
		tick := "`" + string(pt) + "`"
		if !strings.Contains(string(readme), tick) {
			t.Errorf("point %q is not in the README.md fault-point table", pt)
		}
		if !strings.Contains(string(design), tick) {
			t.Errorf("point %q is not documented in DESIGN.md", pt)
		}
	}
}
