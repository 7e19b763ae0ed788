package uc

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
	"time"

	"seuss/internal/costs"
	"seuss/internal/interp"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/snapshot"
)

const nopSource = `function main(args) { return {}; }`

const echoSource = `
function main(args) {
	return {echo: args.msg, n: args.n * 2};
}
`

// initRuntimeSnapshot performs the system-initialization sequence with
// full AO and captures the base runtime snapshot — the setup every test
// below deploys from.
func initRuntimeSnapshot(t *testing.T, st *mem.Store, ao bool) *snapshot.Snapshot {
	t.Helper()
	env := &libos.CountingEnv{}
	boot, err := BootFresh(st, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if ao {
		if err := boot.Guest().Unikernel().WarmNetwork(); err != nil {
			t.Fatal(err)
		}
		if err := boot.Guest().WarmInterpreter(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := boot.Capture("nodejs-runtime", TriggerPCDriverListen)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestBootFreshIsExpensiveAndBig(t *testing.T) {
	st := mem.NewStore(0)
	env := &libos.CountingEnv{}
	boot, err := BootFresh(st, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if env.CPU < costs.UnikernelBoot+costs.InterpreterInit {
		t.Errorf("boot charged only %v", env.CPU)
	}
	// The runtime image is on the order of 100 MB (Table 1: 109.6 MB).
	foot := boot.FootprintBytes()
	if foot < 100<<20 || foot > 125<<20 {
		t.Errorf("boot footprint = %d MB", foot>>20)
	}
	if boot.State() != StateIdle {
		t.Errorf("state = %v", boot.State())
	}
}

func TestRuntimeSnapshotSizeMatchesPaper(t *testing.T) {
	// Table 1: 109.6 MB before AO, 114.5 MB after.
	noAO := initRuntimeSnapshot(t, mem.NewStore(0), false)
	withAO := initRuntimeSnapshot(t, mem.NewStore(0), true)
	mbNo := float64(noAO.DiffBytes()) / 1e6
	mbAO := float64(withAO.DiffBytes()) / 1e6
	if mbNo < 100 || mbNo > 120 {
		t.Errorf("runtime snapshot (no AO) = %.1f MB, want ≈109.6", mbNo)
	}
	growth := mbAO - mbNo
	if growth < 3 || growth > 7 {
		t.Errorf("AO grew base snapshot by %.1f MB, want ≈4.9", growth)
	}
}

func TestDeployAndInvokeNOP(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	env := &libos.CountingEnv{}
	u, err := Deploy(runtime, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if u.From() != runtime {
		t.Error("deploy source wrong")
	}
	if u.Registers().PC != TriggerPCDriverListen {
		t.Errorf("resumed at %#x", u.Registers().PC)
	}
	if err := u.Guest().Connect(); err != nil {
		t.Fatal(err)
	}
	if err := u.Guest().ImportAndCompile(nopSource); err != nil {
		t.Fatal(err)
	}
	out, err := u.Guest().Invoke(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"ok":true`) {
		t.Errorf("result = %q", out)
	}
}

func TestInvokeRealFunctionLogic(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	u, err := Deploy(runtime, nil, &libos.CountingEnv{})
	if err != nil {
		t.Fatal(err)
	}
	u.Guest().Connect()
	if err := u.Guest().ImportAndCompile(echoSource); err != nil {
		t.Fatal(err)
	}
	out, err := u.Guest().Invoke(`{"msg": "hi", "n": 21}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"echo":"hi"`) || !strings.Contains(out, `"n":42`) {
		t.Errorf("result = %q", out)
	}
}

func TestColdWarmHotPathsExerciseLessEachTime(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)

	// Cold: deploy from runtime snapshot, import, capture fn snapshot,
	// invoke.
	coldEnv := &libos.CountingEnv{}
	cold, err := Deploy(runtime, nil, coldEnv)
	if err != nil {
		t.Fatal(err)
	}
	cold.Guest().Connect()
	if err := cold.Guest().ImportAndCompile(nopSource); err != nil {
		t.Fatal(err)
	}
	fnSnap, err := cold.Capture("fn/nop", TriggerPCPostCompile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Guest().Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	coldTime := coldEnv.Elapsed()

	// Warm: deploy from fn snapshot, connect, invoke.
	warmEnv := &libos.CountingEnv{}
	warm, err := Deploy(fnSnap, nil, warmEnv)
	if err != nil {
		t.Fatal(err)
	}
	warm.Guest().Connect()
	if !warm.Guest().Imported() {
		t.Fatal("fn snapshot lost imported function")
	}
	if _, err := warm.Guest().Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	warmTime := warmEnv.Elapsed()

	// Hot: reuse the warm UC for a second invocation.
	hotStart := warmEnv.Elapsed()
	if _, err := warm.Guest().Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	hotTime := warmEnv.Elapsed() - hotStart

	if !(coldTime > warmTime && warmTime > hotTime) {
		t.Errorf("cold %v, warm %v, hot %v: expected strict ordering", coldTime, warmTime, hotTime)
	}
	// Magnitudes: Table 1 reports 7.5 / 3.5 / 0.8 ms after AO.
	if coldTime < 4*time.Millisecond || coldTime > 14*time.Millisecond {
		t.Errorf("cold = %v, want ≈7.5ms", coldTime)
	}
	if warmTime < 1500*time.Microsecond || warmTime > 7*time.Millisecond {
		t.Errorf("warm = %v, want ≈3.5ms", warmTime)
	}
	if hotTime < 200*time.Microsecond || hotTime > 2500*time.Microsecond {
		t.Errorf("hot = %v, want ≈0.8ms", hotTime)
	}
}

func TestFunctionSnapshotIsSmallDiff(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	u, _ := Deploy(runtime, nil, &libos.CountingEnv{})
	u.Guest().Connect()
	u.Guest().ImportAndCompile(nopSource)
	fnSnap, err := u.Capture("fn/nop", TriggerPCPostCompile)
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(fnSnap.DiffBytes()) / 1e6
	// Table 1: 2.0 MB after AO.
	if mb < 1 || mb > 4 {
		t.Errorf("fn snapshot = %.2f MB, want ≈2.0", mb)
	}
	if fnSnap.Base() != runtime {
		t.Error("fn snapshot not stacked on runtime snapshot")
	}
	if fnSnap.StackDepth() != 2 {
		t.Errorf("stack depth = %d", fnSnap.StackDepth())
	}
}

func TestAOShrinksFunctionSnapshot(t *testing.T) {
	// Table 1: NOP fn snapshot 4.8 MB without AO → 2.0 MB with.
	mkFnSnap := func(ao bool) *snapshot.Snapshot {
		st := mem.NewStore(0)
		runtime := initRuntimeSnapshot(t, st, ao)
		u, err := Deploy(runtime, nil, &libos.CountingEnv{})
		if err != nil {
			t.Fatal(err)
		}
		u.Guest().Connect()
		if err := u.Guest().ImportAndCompile(nopSource); err != nil {
			t.Fatal(err)
		}
		snap, err := u.Capture("fn", TriggerPCPostCompile)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	withAO := float64(mkFnSnap(true).DiffBytes()) / 1e6
	noAO := float64(mkFnSnap(false).DiffBytes()) / 1e6
	if noAO <= withAO {
		t.Fatalf("AO did not shrink fn snapshot: %.2f !> %.2f", noAO, withAO)
	}
	ratio := noAO / withAO
	if ratio < 1.7 || ratio > 3.5 {
		t.Errorf("AO shrink ratio = %.2f (%.2f → %.2f MB), paper ≈2.4x", ratio, noAO, withAO)
	}
}

func TestManyUCsFromOneSnapshotAreIsolated(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	counter := `var n = 0; function main(args) { n = n + 1; return {count: n}; }`

	mk := func() *UC {
		u, err := Deploy(runtime, nil, &libos.CountingEnv{})
		if err != nil {
			t.Fatal(err)
		}
		u.Guest().Connect()
		if err := u.Guest().ImportAndCompile(counter); err != nil {
			t.Fatal(err)
		}
		return u
	}
	a, b := mk(), mk()
	a.Guest().Invoke(`{}`)
	a.Guest().Invoke(`{}`)
	out, _ := a.Guest().Invoke(`{}`)
	if !strings.Contains(out, `"count":3`) {
		t.Errorf("a count = %q", out)
	}
	outB, _ := b.Guest().Invoke(`{}`)
	if !strings.Contains(outB, `"count":1`) {
		t.Errorf("b saw a's state: %q", outB)
	}
}

func TestDriverStateSurvivesSnapshotDeploy(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	u, _ := Deploy(runtime, nil, &libos.CountingEnv{})
	u.Guest().Connect()
	u.Guest().ImportAndCompile(nopSource)
	u.Guest().Invoke(`{}`)
	u.Guest().Invoke(`{}`)
	fnSnap, err := u.Capture("fn", TriggerPCPostCompile)
	if err != nil {
		t.Fatal(err)
	}

	// A warm deployment resumes with the captured driver state: the
	// sequence number continues from the snapshot point.
	w, err := Deploy(fnSnap, nil, &libos.CountingEnv{})
	if err != nil {
		t.Fatal(err)
	}
	w.Guest().Connect()
	out, err := w.Guest().Invoke(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"seq":3`) {
		t.Errorf("driver state not carried in snapshot: %q", out)
	}
}

func TestDestroyReleasesMemory(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	frames0 := st.Stats().FramesInUse
	u, err := Deploy(runtime, nil, &libos.CountingEnv{})
	if err != nil {
		t.Fatal(err)
	}
	u.Guest().Connect()
	u.Guest().ImportAndCompile(nopSource)
	u.Guest().Invoke(`{}`)
	u.Destroy()
	if got := st.Stats().FramesInUse; got != frames0 {
		t.Errorf("leaked %d frames", got-frames0)
	}
	if u.State() != StateDestroyed {
		t.Error("state not destroyed")
	}
	// Idempotent.
	u.Destroy()
	if u.FootprintBytes() != 0 {
		t.Error("destroyed UC reports footprint")
	}
	if _, err := u.Capture("x", TriggerPCPostCompile); err != ErrDestroyed {
		t.Errorf("capture on destroyed = %v", err)
	}
	if runtime.ActiveUCs() != 0 {
		t.Errorf("runtime still has %d active UCs", runtime.ActiveUCs())
	}
}

func TestIdleUCFootprintSupportsDensity(t *testing.T) {
	// Table 3: 54,000 idle UCs in 88 GB → ≈1.6 MB marginal each.
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	u, err := Deploy(runtime, nil, &libos.CountingEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Guest().Connect(); err != nil {
		t.Fatal(err)
	}
	foot := u.FootprintBytes()
	mb := float64(foot) / 1e6
	if mb < 0.4 || mb > 2.5 {
		t.Errorf("idle UC footprint = %.2f MB, want ≈1.6", mb)
	}
}

func TestHypercallTrafficCounted(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	u, _ := Deploy(runtime, nil, &libos.CountingEnv{})
	u.Guest().Connect()
	u.Guest().ImportAndCompile(nopSource)
	u.Guest().Invoke(`{}`)
	if u.Hypercalls().Total() == 0 {
		t.Error("no hypercall crossings recorded")
	}
}

func TestDeployFromSnapshotWithoutPayloadFails(t *testing.T) {
	st := mem.NewStore(0)
	env := &libos.CountingEnv{}
	boot, _ := BootFresh(st, nil, env)
	// Capture directly through the snapshot package: no payload.
	bare, err := snapshot.Capture("bare", nil, boot.Space(), snapshot.Registers{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(bare, nil, env); err == nil {
		t.Error("deploy from payload-less snapshot succeeded")
	}
	if bare.ActiveUCs() != 0 {
		t.Error("failed deploy leaked UC reference")
	}
}

func TestStateStrings(t *testing.T) {
	if StateIdle.String() != "idle" || StateRunning.String() != "running" || StateDestroyed.String() != "destroyed" {
		t.Error("state names")
	}
}

func TestPayloadBinaryRoundTrip(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	u, err := Deploy(runtime, nil, &libos.CountingEnv{})
	if err != nil {
		t.Fatal(err)
	}
	u.Guest().Connect()
	u.Guest().ImportAndCompile(nopSource)
	snap, err := u.Capture("fn", TriggerPCPostCompile)
	if err != nil {
		t.Fatal(err)
	}
	pl := snap.Payload().(Payload)
	data, err := pl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Interp.ImportedSource != pl.Interp.ImportedSource {
		t.Error("imported source lost")
	}
	if back.Libos.HeapBrk != pl.Libos.HeapBrk {
		t.Error("heap brk lost")
	}
	if len(back.Libos.Files) != len(pl.Libos.Files) {
		t.Error("ramdisk metadata lost")
	}
	if _, err := DecodePayload([]byte("garbage")); err == nil {
		t.Error("garbage payload decoded")
	}
}

// TestDecodePayloadRejectsGobEra: a payload in the encoding builds
// before "SEUP" wrote is a clean decode error, not a second decoder.
func TestDecodePayloadRejectsGobEra(t *testing.T) {
	var old bytes.Buffer
	err := gob.NewEncoder(&old).Encode(struct {
		Libos     libos.State
		Interp    interp.State
		FilePaths []string
		FileSizes []int64
	}{
		Libos:     libos.State{HeapBrk: 1 << 20, Booted: true},
		Interp:    interp.State{Runtime: "nodejs", ImportedSource: nopSource},
		FilePaths: []string{"/lib/runtime.js"},
		FileSizes: []int64{4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := DecodePayload(old.Bytes())
	if err == nil {
		t.Fatal("gob-era payload decoded")
	}
	if !reflect.DeepEqual(pl, Payload{}) {
		t.Errorf("failed decode returned a partial payload: %+v", pl)
	}
}
