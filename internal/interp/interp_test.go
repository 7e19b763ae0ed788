package interp

import (
	"strings"
	"testing"
	"time"

	"seuss/internal/costs"
	"seuss/internal/hypercall"
	"seuss/internal/lang"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

// newRuntime boots a unikernel and loads the interpreter + driver —
// the full system-initialization sequence.
func newRuntime(t *testing.T) (*Runtime, *libos.CountingEnv) {
	t.Helper()
	st := mem.NewStore(0)
	as, err := pagetable.New(st)
	if err != nil {
		t.Fatal(err)
	}
	env := &libos.CountingEnv{}
	uk := libos.New(as, hypercall.NewStubHost(), env)
	if err := uk.Boot(); err != nil {
		t.Fatal(err)
	}
	r := NewRuntime(uk)
	if err := r.InitInterpreter(); err != nil {
		t.Fatal(err)
	}
	if err := r.StartDriver(); err != nil {
		t.Fatal(err)
	}
	return r, env
}

func TestDriverScriptIsRealMiniJS(t *testing.T) {
	if _, err := lang.Parse(driverSource); err != nil {
		t.Fatalf("driver does not parse: %v", err)
	}
	if _, err := lang.Parse(warmSource); err != nil {
		t.Fatalf("warm script does not parse: %v", err)
	}
}

func TestInitLoadsInterpreterImage(t *testing.T) {
	r, _ := newRuntime(t)
	// The interpreter image accounts for ~98 MiB (103 MB) of guest heap.
	if brk := r.Unikernel().HeapBrk(); brk-libos.HeapBase < 95<<20 {
		t.Errorf("heap after init = %d MB", (brk-libos.HeapBase)>>20)
	}
	if !r.State().DriverStarted {
		t.Error("driver not started")
	}
}

func TestInitRequiresBoot(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := pagetable.New(st)
	uk := libos.New(as, hypercall.NewStubHost(), &libos.CountingEnv{})
	r := NewRuntime(uk)
	if err := r.InitInterpreter(); err != libos.ErrNotBooted {
		t.Errorf("err = %v", err)
	}
}

func TestDoubleStartDriverFails(t *testing.T) {
	r, _ := newRuntime(t)
	if err := r.StartDriver(); err == nil {
		t.Error("double StartDriver succeeded")
	}
}

func TestImportInvokeFlow(t *testing.T) {
	r, _ := newRuntime(t)
	if r.Imported() {
		t.Fatal("imported before import")
	}
	if _, err := r.Invoke(`{}`); err != errNoFunction {
		t.Errorf("invoke before import: %v", err)
	}
	if err := r.ImportAndCompile(`function main(a) { return 1; }`); err == nil {
		t.Error("import without connection succeeded")
	}
	if err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := r.ImportAndCompile(`function main(args) { return {v: args.x + 1}; }`); err != nil {
		t.Fatal(err)
	}
	out, err := r.Invoke(`{"x": 41}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"v":42`) {
		t.Errorf("out = %q", out)
	}
}

func TestConnectRequiresDriver(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := pagetable.New(st)
	uk := libos.New(as, hypercall.NewStubHost(), &libos.CountingEnv{})
	uk.Boot()
	r := NewRuntime(uk)
	if err := r.Connect(); err == nil {
		t.Error("connect without driver succeeded")
	}
}

func TestImportRejectsBadSource(t *testing.T) {
	r, _ := newRuntime(t)
	r.Connect()
	if err := r.ImportAndCompile(`function main( {`); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestInvokeThrowBecomesDriverError(t *testing.T) {
	r, _ := newRuntime(t)
	r.Connect()
	r.ImportAndCompile(`function main(args) { throw "kaboom"; }`)
	out, err := r.Invoke(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"ok": false`) || !strings.Contains(out, "kaboom") {
		t.Errorf("out = %q", out)
	}
}

func TestRequestCounterTracksInvocations(t *testing.T) {
	r, _ := newRuntime(t)
	r.Connect()
	r.ImportAndCompile(`function main(args) { return {}; }`)
	for i := 0; i < 3; i++ {
		if _, err := r.Invoke(`{}`); err != nil {
			t.Fatal(err)
		}
	}
	n, err := r.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("driver requests = %d", n)
	}
	if r.State().Requests != 3 {
		t.Errorf("state requests = %d", r.State().Requests)
	}
}

func TestWarmInterpreterSetsAOAndAllocates(t *testing.T) {
	r, env := newRuntime(t)
	cpu0 := env.CPU
	brk0 := r.Unikernel().HeapBrk()
	if err := r.WarmInterpreter(); err != nil {
		t.Fatal(err)
	}
	if !r.State().InterpAO || !r.State().InterpWarm {
		t.Errorf("state = %+v", r.State())
	}
	if env.CPU-cpu0 < costs.InterpFirstUse {
		t.Errorf("warm charged %v", env.CPU-cpu0)
	}
	grew := int64(r.Unikernel().HeapBrk() - brk0)
	if grew < costs.InterpAOBytes {
		t.Errorf("warm grew heap by %d", grew)
	}
}

func TestImportWithoutAOPaysFirstUse(t *testing.T) {
	r, env := newRuntime(t)
	r.Connect()
	cpu0 := env.CPU
	if err := r.ImportAndCompile(`function main(a) { return {}; }`); err != nil {
		t.Fatal(err)
	}
	if env.CPU-cpu0 < costs.InterpFirstUse {
		t.Errorf("first import without AO charged %v", env.CPU-cpu0)
	}
	if r.State().InterpAO {
		t.Error("InterpAO set without AO pass")
	}
	if !r.State().InterpWarm {
		t.Error("InterpWarm not set after first run")
	}
}

func TestCompileChargesBySourceSize(t *testing.T) {
	small, envS := newRuntime(t)
	small.Connect()
	small.WarmInterpreter()
	cpu0 := envS.CPU
	small.ImportAndCompile(`function main(a) { return {}; }`)
	smallCost := envS.CPU - cpu0

	big, envB := newRuntime(t)
	big.Connect()
	big.WarmInterpreter()
	var sb strings.Builder
	sb.WriteString(`function main(a) { var x = 0; `)
	for i := 0; i < 500; i++ {
		sb.WriteString("x = x + 1; ")
	}
	sb.WriteString(`return {x: x}; }`)
	cpu1 := envB.CPU
	big.ImportAndCompile(sb.String())
	bigCost := envB.CPU - cpu1
	if bigCost <= smallCost {
		t.Errorf("big compile %v !> small compile %v", bigCost, smallCost)
	}
}

func TestRestoreFromStateReplaysSilently(t *testing.T) {
	r, _ := newRuntime(t)
	r.Connect()
	r.WarmInterpreter()
	src := `var calls = 0; function main(args) { calls = calls + 1; return {calls: calls}; }`
	if err := r.ImportAndCompile(src); err != nil {
		t.Fatal(err)
	}
	r.Invoke(`{}`)
	r.Invoke(`{}`)

	// Simulate the snapshot/deploy cycle: clone the space, rebuild the
	// runtime from the state payload.
	st := r.State()
	ukState := r.Unikernel().State()
	space := r.Unikernel().Space()
	space.SetCoWAll()
	space.ClearDirty()
	space.Freeze()
	clone, err := space.Clone()
	if err != nil {
		t.Fatal(err)
	}
	env2 := &libos.CountingEnv{}
	uk2 := libos.New(clone, hypercall.NewStubHost(), env2)
	uk2.Rehydrate(ukState)
	r2, err := RestoreFromState(uk2, st, 500)
	if err != nil {
		t.Fatal(err)
	}
	if env2.CPU != 0 {
		t.Errorf("rehydration charged %v", env2.CPU)
	}
	if !r2.Imported() || !r2.State().InterpAO {
		t.Errorf("state lost: %+v", r2.State())
	}
	if err := r2.Connect(); err != nil {
		t.Fatal(err)
	}
	out, err := r2.Invoke(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	// Driver sequence number continues from the captured value; the
	// function's own counter restarts from the snapshot point (the
	// snapshot was taken at import time, before any invocation wrote
	// calls — matching the paper's warm-path semantics of re-running
	// from the post-compile image).
	if !strings.Contains(out, `"seq":3`) {
		t.Errorf("driver seq lost: %q", out)
	}
	if !strings.Contains(out, `"calls":1`) {
		t.Errorf("function state wrong: %q", out)
	}
}

func TestHotWriteCapBoundsDirtying(t *testing.T) {
	r, _ := newRuntime(t)
	r.Connect()
	r.WarmInterpreter()
	r.ImportAndCompile(`function main(a) { return {}; }`)
	// Pretend this runtime was deployed from an enormous snapshot.
	r.st.DeployedDiffPages = 1_000_000
	before := r.Unikernel().Space().Faults.Copied()
	if _, err := r.Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	faults := r.Unikernel().Space().Faults.Copied() - before
	if faults > costs.HotWriteCapPages+200 {
		t.Errorf("invocation dirtied %d pages; cap is %d", faults, costs.HotWriteCapPages)
	}
}

// httpEnv answers a guest http.get after blocking it 250 ms.
type httpEnv struct{ libos.CountingEnv }

func (e *httpEnv) HTTPGet(url string) (string, error) {
	e.Blocked += 250 * time.Millisecond
	return "pong:" + url, nil
}

func TestGuestHTTPThroughHooks(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := pagetable.New(st)
	env := &httpEnv{}
	uk := libos.New(as, hypercall.NewStubHost(), env)
	uk.Boot()
	r := NewRuntime(uk)
	r.InitInterpreter()
	r.StartDriver()
	r.Connect()
	r.ImportAndCompile(`function main(args) { return {body: http.get("svc")}; }`)
	blocked0 := env.Blocked
	out, err := r.Invoke(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pong:svc") {
		t.Errorf("out = %q", out)
	}
	if env.Blocked-blocked0 < 250*time.Millisecond {
		t.Errorf("guest IO did not block: %v", env.Blocked-blocked0)
	}
}

func TestGuestAllocsAccounted(t *testing.T) {
	r, _ := newRuntime(t)
	r.Connect()
	r.ImportAndCompile(`function main(args) { var a = []; for (var i = 0; i < 100; i++) { a.push({i: i}); } return {n: a.length}; }`)
	a0 := r.GuestAllocs()
	if _, err := r.Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	if r.GuestAllocs() <= a0 {
		t.Error("function allocations not charged to guest heap")
	}
}

func TestProfileRegistry(t *testing.T) {
	if _, err := ProfileByName("nodejs"); err != nil {
		t.Error(err)
	}
	if _, err := ProfileByName("python"); err != nil {
		t.Error(err)
	}
	if _, err := ProfileByName("cobol"); err == nil {
		t.Error("unknown profile resolved")
	}
	names := Profiles()
	if len(names) < 2 {
		t.Errorf("profiles = %v", names)
	}
	// Registration replaces.
	custom := Profile{Name: "custom", ImageBytes: 1 << 20, InitCost: time.Millisecond,
		DriverSource: driverSource, WarmSource: warmSource}
	registerProfile(custom)
	got, err := ProfileByName("custom")
	if err != nil || got.ImageBytes != 1<<20 {
		t.Errorf("custom profile: %+v, %v", got, err)
	}
}

func TestPythonProfileRuntime(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := pagetable.New(st)
	env := &libos.CountingEnv{}
	uk := libos.New(as, hypercall.NewStubHost(), env)
	uk.Boot()
	r := NewRuntimeWithProfile(uk, python)
	if err := r.InitInterpreter(); err != nil {
		t.Fatal(err)
	}
	if err := r.StartDriver(); err != nil {
		t.Fatal(err)
	}
	if r.State().Runtime != "python" {
		t.Errorf("runtime = %q", r.State().Runtime)
	}
	// Python's resident image is much smaller than Node's.
	heap := int64(uk.HeapBrk() - libos.HeapBase)
	if heap > 50<<20 {
		t.Errorf("python heap = %d MB", heap>>20)
	}
	r.Connect()
	if err := r.ImportAndCompile(`function main(a) { return {ok: 1}; }`); err != nil {
		t.Fatal(err)
	}
	out, err := r.Invoke(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"ok":1`) {
		t.Errorf("out = %q", out)
	}
}

func TestRestorePreservesRuntimeName(t *testing.T) {
	st := mem.NewStore(0)
	as, _ := pagetable.New(st)
	env := &libos.CountingEnv{}
	uk := libos.New(as, hypercall.NewStubHost(), env)
	uk.Boot()
	r := NewRuntimeWithProfile(uk, python)
	r.InitInterpreter()
	r.StartDriver()

	stState := r.State()
	ukState := uk.State()
	space := uk.Space()
	space.SetCoWAll()
	space.ClearDirty()
	space.Freeze()
	clone, _ := space.Clone()
	uk2 := libos.New(clone, hypercall.NewStubHost(), &libos.CountingEnv{})
	uk2.Rehydrate(ukState)
	r2, err := RestoreFromState(uk2, stState, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Profile().Name != "python" {
		t.Errorf("restored profile = %q", r2.Profile().Name)
	}
}
