package experiments

import (
	"strings"
	"testing"
	"time"
)

// tolerances are generous here: the precise calibration checks live in
// internal/uc's calibration tests; these verify the experiment
// harnesses produce paper-shaped output end to end.

func TestTable1Shape(t *testing.T) {
	t1, err := runTable1(5)
	if err != nil {
		t.Fatal(err)
	}
	// AO halves the function snapshot and grows the base image.
	if t1.FullAO.FnSnapshotMB >= t1.NoAO.FnSnapshotMB/1.5 {
		t.Errorf("fn snapshot %0.2f → %0.2f MB: AO did not shrink it enough",
			t1.NoAO.FnSnapshotMB, t1.FullAO.FnSnapshotMB)
	}
	if t1.FullAO.BaseSnapshotMB <= t1.NoAO.BaseSnapshotMB {
		t.Error("AO did not grow the base snapshot")
	}
	// Latency ordering within the AO run.
	if !(t1.FullAO.Cold > t1.FullAO.Warm && t1.FullAO.Warm > t1.FullAO.Hot) {
		t.Errorf("latency ordering: %v / %v / %v", t1.FullAO.Cold, t1.FullAO.Warm, t1.FullAO.Hot)
	}
	// Pages copied decrease along the path ladder.
	if !(t1.FullAO.ColdPagesCopied > t1.FullAO.WarmPagesCopied &&
		t1.FullAO.WarmPagesCopied > t1.FullAO.HotPagesCopied) {
		t.Errorf("pages copied: %d / %d / %d",
			t1.FullAO.ColdPagesCopied, t1.FullAO.WarmPagesCopied, t1.FullAO.HotPagesCopied)
	}
	out := t1.Render()
	for _, want := range []string{"Node.js Invocation Driver", "Cold Start", "Hot Start"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2Monotone(t *testing.T) {
	t2, err := runTable2(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Levels) != 3 {
		t.Fatalf("levels = %d", len(t2.Levels))
	}
	// Each added AO strictly improves both cold and warm starts.
	for i := 1; i < 3; i++ {
		if t2.Levels[i].Cold >= t2.Levels[i-1].Cold {
			t.Errorf("cold not improved at level %d: %v >= %v", i, t2.Levels[i].Cold, t2.Levels[i-1].Cold)
		}
		if t2.Levels[i].Warm >= t2.Levels[i-1].Warm {
			t.Errorf("warm not improved at level %d: %v >= %v", i, t2.Levels[i].Warm, t2.Levels[i-1].Warm)
		}
	}
	// The big cold-start jumps: ≈2.5x from network AO, ≈2x more from
	// interpreter AO.
	if ratio := float64(t2.Levels[0].Cold) / float64(t2.Levels[1].Cold); ratio < 1.8 {
		t.Errorf("network AO cold speedup = %.2f", ratio)
	}
	if ratio := float64(t2.Levels[1].Cold) / float64(t2.Levels[2].Cold); ratio < 1.5 {
		t.Errorf("interpreter AO cold speedup = %.2f", ratio)
	}
	if !strings.Contains(t2.Render(), "Network + Interpreter AO") {
		t.Error("render missing header")
	}
}

func TestTable3Ordering(t *testing.T) {
	t3, err := runTable3(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 4 {
		t.Fatalf("rows = %d", len(t3.Rows))
	}
	byName := map[string]table3Row{}
	for _, r := range t3.Rows {
		byName[r.Method] = r
	}
	fc := byName["Firecracker microVM"]
	dk := byName["Docker w/ overlay2 fs"]
	pr := byName["Linux process"]
	su := byName["SEUSS UC"]

	// Creation-rate ordering: FC < Docker < process < SEUSS.
	if !(fc.CreationRate < dk.CreationRate && dk.CreationRate < pr.CreationRate && pr.CreationRate < su.CreationRate) {
		t.Errorf("creation rates out of order: %+v", t3.Rows)
	}
	// Density ordering: FC < Docker < process << SEUSS.
	if !(fc.Density < dk.Density && dk.Density < pr.Density && pr.Density < su.Density) {
		t.Errorf("densities out of order: %+v", t3.Rows)
	}
	// SEUSS is an order of magnitude denser than anything Linux-based.
	if su.Density < 10*pr.Density {
		t.Errorf("SEUSS density %d not >10x process density %d", su.Density, pr.Density)
	}
	if su.Density < 50000 {
		t.Errorf("SEUSS density = %d, paper reports over 54,000", su.Density)
	}
	if !strings.Contains(t3.Render(), "SEUSS UC") {
		t.Error("render missing row")
	}
}

func TestFigure4Crossover(t *testing.T) {
	// N must be large enough that the measured window sits past the
	// container-cache build; the full-size runs use N=1200.
	f, err := runFigure4(figure4Config{SetSizes: []int{64, 2048}, N: 1200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, big := f.Points[0], f.Points[1]
	// Small sets: Linux ahead (the shim hop); big sets: SEUSS far ahead.
	if small.LinuxPerSec <= small.SeussPerSec {
		t.Errorf("at M=64 Linux %.0f !> SEUSS %.0f", small.LinuxPerSec, small.SeussPerSec)
	}
	if big.SeussPerSec < 10*big.LinuxPerSec {
		t.Errorf("at M=2048 SEUSS %.0f not >>10x Linux %.0f", big.SeussPerSec, big.LinuxPerSec)
	}
	// SEUSS throughput is flat across set sizes (the paper's key line).
	if diff := small.SeussPerSec - big.SeussPerSec; diff > 0.15*small.SeussPerSec {
		t.Errorf("SEUSS throughput not flat: %.0f vs %.0f", small.SeussPerSec, big.SeussPerSec)
	}
	if !strings.Contains(f.TSV(), "set_size\t") {
		t.Error("TSV header missing")
	}
}

func TestFigure5Shape(t *testing.T) {
	f, err := runFigure5([]int{32, 2048}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 4 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	var seussSmall, linuxSmall, linuxBig *figure5Row
	for i := range f.Rows {
		r := &f.Rows[i]
		switch {
		case r.Backend == "seuss" && r.SetSize == 32:
			seussSmall = r
		case r.Backend == "linux" && r.SetSize == 32:
			linuxSmall = r
		case r.Backend == "linux" && r.SetSize == 2048:
			linuxBig = r
		}
	}
	// SEUSS latency distribution is tight; Linux blows up at large M
	// (the "large difference in Y-axes ranges").
	if seussSmall.Summary.P99 > 2*seussSmall.Summary.P50 {
		t.Errorf("seuss small-M spread too wide: %v", seussSmall.Summary)
	}
	if linuxBig.Summary.P99 < 10*linuxSmall.Summary.P50 {
		t.Errorf("linux large-M tail did not blow up: small p50 %v, big p99 %v",
			linuxSmall.Summary.P50, linuxBig.Summary.P99)
	}
	if !strings.Contains(f.Render(), "p99") {
		t.Error("render missing quantiles")
	}
}

func TestBurstShapes(t *testing.T) {
	// Scaled-down burst pair: SEUSS absorbs everything; the Linux burst
	// path degrades once the 256 stemcells run dry (5 bursts × 128
	// requests overruns the pool with no time to replenish).
	f, err := runBurst(burstConfig{
		Period:    6 * time.Second,
		Bursts:    5,
		BurstSize: 128,
		Threads:   48,
		BGRate:    30,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Seuss.BurstErrors != 0 || f.Seuss.BackgroundErrors != 0 {
		t.Errorf("SEUSS errors: bg=%d burst=%d", f.Seuss.BackgroundErrors, f.Seuss.BurstErrors)
	}
	if f.Seuss.BurstCount != 5*128 {
		t.Errorf("burst count = %d", f.Seuss.BurstCount)
	}
	// SEUSS handles bursts orders of magnitude faster than Linux once
	// the Linux stemcell pool is exhausted.
	if f.Linux.BurstP99 < 4*f.Seuss.BurstP99 {
		t.Errorf("linux burst p99 %v not >> seuss %v", f.Linux.BurstP99, f.Seuss.BurstP99)
	}
	if !strings.Contains(f.Render(), "bg errors") {
		t.Error("render missing columns")
	}
	if !strings.Contains(f.TSV(), "backend\tkind") {
		t.Error("TSV header missing")
	}
}

func TestFigure1StageSkipping(t *testing.T) {
	f, err := runFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Stages) != 5 {
		t.Fatalf("stages = %d", len(f.Stages))
	}
	byName := map[string]figure1Stage{}
	for _, s := range f.Stages {
		byName[s.Name] = s
	}
	boot := byName["boot unikernel + init interpreter"]
	if !boot.ColdSkip || !boot.WarmSkip || !boot.HotSkip {
		t.Error("boot stage not skipped by every path")
	}
	imp := byName["import + compile function"]
	if imp.Cold <= 0 || !imp.WarmSkip || !imp.HotSkip {
		t.Errorf("import stage: %+v", imp)
	}
	dep := byName["deploy UC"]
	if dep.Cold <= 0 || dep.Warm <= 0 || !dep.HotSkip {
		t.Errorf("deploy stage: %+v", dep)
	}
	exec := byName["pass arguments + execute"]
	if exec.Cold <= 0 || exec.Warm <= 0 || exec.Hot <= 0 {
		t.Errorf("execute stage: %+v", exec)
	}
	// The once-ever system init dwarfs any per-invocation stage.
	if f.BootTime < 500*time.Millisecond {
		t.Errorf("boot time = %v", f.BootTime)
	}
	if !strings.Contains(f.Render(), "cached") {
		t.Error("render missing skip markers")
	}
}

func TestFailoverTimeline(t *testing.T) {
	f, err := runFailover(failoverConfig{N: 300, M: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(f.Phases))
	}
	// Every phase keeps serving: failovers and repairs are contained,
	// so the client never sees an error.
	for _, p := range f.Phases {
		if p.Errors != 0 {
			t.Errorf("phase %q saw %d client errors", p.Phase, p.Errors)
		}
		if p.PerSec <= 0 {
			t.Errorf("phase %q throughput = %.1f", p.Phase, p.PerSec)
		}
	}
	// The acceptance bar: the rejoined cluster recovers the pre-crash
	// throughput to within 10%.
	if f.RecoveryRatio < 0.9 {
		t.Errorf("post-rejoin recovery = %.2fx, want >= 0.9x", f.RecoveryRatio)
	}
	// The crash landed under load: at least one in-flight invocation
	// failed over, and the victim walked suspect -> dead -> revived.
	st := f.Stats
	if st.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", st.Failovers)
	}
	if st.DeadMembers < 1 || st.RevivedMembers < 1 {
		t.Errorf("lifecycle: dead=%d revived=%d, want both >= 1", st.DeadMembers, st.RevivedMembers)
	}
	if !strings.Contains(f.TSV(), "phase\t") {
		t.Error("TSV header missing")
	}
	if !strings.Contains(f.Render(), "post-rejoin") {
		t.Error("render missing recovery line")
	}
}
