package uc

import (
	"testing"
	"time"

	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/snapshot"
)

// measureAO runs the full micro flow (system init with the given AO
// level → cold → warm → hot) and returns the three invocation
// latencies plus the snapshot sizes — the raw material of Tables 1 & 2.
func measureAO(t *testing.T, netAO, interpAO bool) (cold, warm, hot time.Duration, base, fn *snapshot.Snapshot) {
	t.Helper()
	st := mem.NewStore(0)
	env := &libos.CountingEnv{}
	boot, err := BootFresh(st, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if netAO {
		if err := boot.Guest().Unikernel().WarmNetwork(); err != nil {
			t.Fatal(err)
		}
	}
	if interpAO {
		if err := boot.Guest().WarmInterpreter(); err != nil {
			t.Fatal(err)
		}
	}
	base, err = boot.Capture("runtime", TriggerPCDriverListen)
	if err != nil {
		t.Fatal(err)
	}

	coldEnv := &libos.CountingEnv{}
	coldUC, err := Deploy(base, nil, coldEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := coldUC.Guest().Connect(); err != nil {
		t.Fatal(err)
	}
	if err := coldUC.Guest().ImportAndCompile(nopSource); err != nil {
		t.Fatal(err)
	}
	fn, err = coldUC.Capture("fn/nop", TriggerPCPostCompile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coldUC.Guest().Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	cold = coldEnv.CPU

	warmEnv := &libos.CountingEnv{}
	warmUC, err := Deploy(fn, nil, warmEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := warmUC.Guest().Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := warmUC.Guest().Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	warm = warmEnv.CPU

	h0 := warmEnv.CPU
	if _, err := warmUC.Guest().Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	hot = warmEnv.CPU - h0
	return cold, warm, hot, base, fn
}

// within checks v against a paper value with a relative tolerance.
func within(t *testing.T, name string, got time.Duration, paperMS float64, tol float64) {
	t.Helper()
	g := float64(got.Microseconds()) / 1000
	if g < paperMS*(1-tol) || g > paperMS*(1+tol) {
		t.Errorf("%s = %.2f ms, paper reports %.1f ms (tolerance ±%.0f%%)", name, g, paperMS, tol*100)
	}
}

// TestCalibrationTable2 verifies the AO ablation (Table 2) within 25%
// of the paper's values:
//
//	             No AO   Network AO   Network+Interp AO
//	Cold Start   42 ms   16.8 ms      7.5 ms
//	Warm Start   7.6 ms  5.5 ms       3.5 ms
func TestCalibrationTable2(t *testing.T) {
	coldNo, warmNo, _, _, _ := measureAO(t, false, false)
	coldNet, warmNet, _, _, _ := measureAO(t, true, false)
	coldAO, warmAO, hotAO, base, fn := measureAO(t, true, true)

	t.Logf("cold: %v / %v / %v (paper 42 / 16.8 / 7.5 ms)", coldNo, coldNet, coldAO)
	t.Logf("warm: %v / %v / %v (paper 7.6 / 5.5 / 3.5 ms)", warmNo, warmNet, warmAO)
	t.Logf("hot:  %v (paper 0.8 ms)", hotAO)
	t.Logf("base snapshot: %.1f MB (paper 114.5), fn snapshot: %.2f MB (paper 2.0)",
		float64(base.DiffBytes())/1e6, float64(fn.DiffBytes())/1e6)

	within(t, "cold/noAO", coldNo, 42.0, 0.25)
	within(t, "cold/netAO", coldNet, 16.8, 0.25)
	within(t, "cold/fullAO", coldAO, 7.5, 0.25)
	within(t, "warm/noAO", warmNo, 7.6, 0.25)
	within(t, "warm/netAO", warmNet, 5.5, 0.25)
	within(t, "warm/fullAO", warmAO, 3.5, 0.25)
	within(t, "hot/fullAO", hotAO, 0.8, 0.35)
}

// TestCalibrationTable1Memory verifies the snapshot-size half of
// Table 1 within 20%.
func TestCalibrationTable1Memory(t *testing.T) {
	_, _, _, baseNo, fnNo := measureAO(t, false, false)
	_, _, _, baseAO, fnAO := measureAO(t, true, true)

	checks := []struct {
		name    string
		gotMB   float64
		paperMB float64
	}{
		{"runtime snapshot (no AO)", float64(baseNo.DiffBytes()) / 1e6, 109.6},
		{"runtime snapshot (AO)", float64(baseAO.DiffBytes()) / 1e6, 114.5},
		{"fn snapshot (no AO)", float64(fnNo.DiffBytes()) / 1e6, 4.8},
		{"fn snapshot (AO)", float64(fnAO.DiffBytes()) / 1e6, 2.0},
	}
	for _, c := range checks {
		t.Logf("%s = %.2f MB (paper %.1f)", c.name, c.gotMB, c.paperMB)
		if c.gotMB < c.paperMB*0.8 || c.gotMB > c.paperMB*1.2 {
			t.Errorf("%s = %.2f MB, paper %.1f MB", c.name, c.gotMB, c.paperMB)
		}
	}
}
