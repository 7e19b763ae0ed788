package libos

import (
	"testing"
	"time"

	"seuss/internal/costs"
	"seuss/internal/hypercall"
	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

func newUK(t *testing.T) (*Unikernel, *CountingEnv) {
	t.Helper()
	st := mem.NewStore(0)
	as, err := pagetable.New(st)
	if err != nil {
		t.Fatal(err)
	}
	env := &CountingEnv{}
	uk := New(as, hypercall.NewStubHost(), env)
	return uk, env
}

func booted(t *testing.T) (*Unikernel, *CountingEnv) {
	t.Helper()
	uk, env := newUK(t)
	if err := uk.Boot(); err != nil {
		t.Fatal(err)
	}
	return uk, env
}

func TestBootTouchesKernelAndStack(t *testing.T) {
	uk, env := newUK(t)
	if err := uk.Boot(); err != nil {
		t.Fatal(err)
	}
	if !uk.Booted() {
		t.Fatal("not booted")
	}
	// 4 MB kernel + 64-page stack.
	wantPages := (4<<20)/mem.PageSize + stackPages
	if got := uk.Space().MappedPages(); got != wantPages {
		t.Errorf("mapped = %d, want %d", got, wantPages)
	}
	if env.CPU < costs.UnikernelBoot {
		t.Errorf("boot charged %v", env.CPU)
	}
}

func TestDoubleBootFails(t *testing.T) {
	uk, _ := booted(t)
	if err := uk.Boot(); err == nil {
		t.Error("double boot succeeded")
	}
}

func TestOpsBeforeBootFail(t *testing.T) {
	uk, _ := newUK(t)
	if _, err := uk.Alloc(10); err != ErrNotBooted {
		t.Errorf("Alloc err = %v", err)
	}
	if _, err := uk.AcceptConnection(); err != ErrNotBooted {
		t.Errorf("Accept err = %v", err)
	}
	if err := uk.WarmNetwork(); err != ErrNotBooted {
		t.Errorf("Warm err = %v", err)
	}
	if err := uk.WriteFile("/x", nil); err != ErrNotBooted {
		t.Errorf("WriteFile err = %v", err)
	}
}

func TestAllocBumpsAndTouchesPages(t *testing.T) {
	uk, _ := booted(t)
	before := uk.Space().DirtyCount()
	addr, err := uk.Alloc(10 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if addr != HeapBase {
		t.Errorf("first alloc at %#x, want HeapBase", addr)
	}
	if got := uk.Space().DirtyCount() - before; got != 10 {
		t.Errorf("dirtied %d pages, want 10", got)
	}
	addr2, _ := uk.Alloc(1)
	if addr2 != HeapBase+10*mem.PageSize {
		t.Errorf("bump pointer wrong: %#x", addr2)
	}
}

func TestSmallAllocsSharePages(t *testing.T) {
	uk, _ := booted(t)
	before := uk.Space().DirtyCount()
	for i := 0; i < 64; i++ {
		if _, err := uk.Alloc(32); err != nil {
			t.Fatal(err)
		}
	}
	// 64 x 32 B = 2 KB: should dirty exactly one page.
	if got := uk.Space().DirtyCount() - before; got != 1 {
		t.Errorf("dirtied %d pages for 2KB of small allocs", got)
	}
}

func TestAllocChargesFaultTime(t *testing.T) {
	uk, env := booted(t)
	cpu0 := env.CPU
	if _, err := uk.Alloc(100 * mem.PageSize); err != nil {
		t.Fatal(err)
	}
	want := 100 * costs.PageFault
	if got := env.CPU - cpu0; got != want {
		t.Errorf("fault time = %v, want %v", got, want)
	}
}

func TestAllocNegative(t *testing.T) {
	uk, _ := booted(t)
	if _, err := uk.Alloc(-1); err == nil {
		t.Error("negative alloc succeeded")
	}
}

func TestAllocZero(t *testing.T) {
	uk, _ := booted(t)
	a1, err := uk.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := uk.Alloc(0)
	if a1 != a2 {
		t.Error("zero alloc moved brk")
	}
}

func TestWarmNetworkFirstUseCosts(t *testing.T) {
	uk, env := booted(t)
	cpu0 := env.CPU
	if err := uk.WarmNetwork(); err != nil {
		t.Fatal(err)
	}
	if env.CPU-cpu0 < costs.NetFirstUse {
		t.Errorf("first warm charged %v", env.CPU-cpu0)
	}
	st := uk.State()
	if !st.NetWarm || !st.NetAO {
		t.Errorf("state = %+v", st)
	}
	// Idempotent: second warm is nearly free.
	cpu1 := env.CPU
	uk.WarmNetwork()
	if env.CPU-cpu1 > time.Millisecond {
		t.Errorf("second warm charged %v", env.CPU-cpu1)
	}
}

func TestAcceptConnectionCostDependsOnAO(t *testing.T) {
	// With network AO: cheap connects.
	ukAO, envAO := booted(t)
	ukAO.WarmNetwork()
	cpu0 := envAO.CPU
	if _, err := ukAO.AcceptConnection(); err != nil {
		t.Fatal(err)
	}
	withAO := envAO.CPU - cpu0

	// Without AO (but already carried traffic): expensive connects.
	ukNo, envNo := booted(t)
	if _, err := ukNo.AcceptConnection(); err != nil { // pays first-use too
		t.Fatal(err)
	}
	cpu1 := envNo.CPU
	if _, err := ukNo.AcceptConnection(); err != nil {
		t.Fatal(err)
	}
	withoutAO := envNo.CPU - cpu1

	if withAO >= withoutAO {
		t.Errorf("AO connect %v !< non-AO connect %v", withAO, withoutAO)
	}
}

func TestFirstConnectionTriggersLazyInit(t *testing.T) {
	uk, env := booted(t)
	cpu0 := env.CPU
	if _, err := uk.AcceptConnection(); err != nil {
		t.Fatal(err)
	}
	if env.CPU-cpu0 < costs.NetFirstUse {
		t.Errorf("first connection without AO charged only %v", env.CPU-cpu0)
	}
	if !uk.State().NetWarm {
		t.Error("NetWarm not set")
	}
	if uk.State().NetAO {
		t.Error("NetAO set without AO")
	}
}

func TestConnSendReply(t *testing.T) {
	uk, _ := booted(t)
	conn, err := uk.AcceptConnection()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(128); err != nil {
		t.Fatal(err)
	}
	if err := conn.Reply(64); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if conn.Alive() {
		t.Error("alive after close")
	}
	if err := conn.Send(1); err == nil {
		t.Error("send on closed conn")
	}
	if err := conn.Reply(1); err == nil {
		t.Error("reply on closed conn")
	}
}

func TestWriteFileChargesGuestMemory(t *testing.T) {
	uk, _ := booted(t)
	brk0 := uk.HeapBrk()
	if err := uk.WriteFile("/fn/main.js", []byte("function main() {}")); err != nil {
		t.Fatal(err)
	}
	if uk.HeapBrk() <= brk0 {
		t.Error("file content not charged to heap")
	}
	if uk.FileSize("/fn/main.js") != 18 {
		t.Errorf("size = %d", uk.FileSize("/fn/main.js"))
	}
	if uk.FileSize("/missing") != -1 {
		t.Error("missing file has size")
	}
	if uk.Files() != 1 {
		t.Errorf("files = %d", uk.Files())
	}
}

func TestStateRoundTrip(t *testing.T) {
	uk, _ := booted(t)
	uk.WarmNetwork()
	uk.WriteFile("/a", []byte("xy"))
	st := uk.State()

	// Rehydrate into a second unikernel over a clone (as deploy does).
	uk.Space().SetCoWAll()
	uk.Space().ClearDirty()
	uk.Space().Freeze()
	clone, err := uk.Space().Clone()
	if err != nil {
		t.Fatal(err)
	}
	env2 := &CountingEnv{}
	uk2 := New(clone, hypercall.NewStubHost(), env2)
	uk2.Rehydrate(st)
	if !uk2.Booted() || !uk2.State().NetWarm || !uk2.State().NetAO {
		t.Errorf("rehydrated state = %+v", uk2.State())
	}
	if uk2.HeapBrk() != uk.HeapBrk() {
		t.Error("heap brk not restored")
	}
	if uk2.FileSize("/a") != 2 {
		t.Error("fs not restored")
	}
	if env2.CPU != 0 {
		t.Errorf("rehydration charged %v", env2.CPU)
	}
	// State maps are independent.
	uk2.WriteFile("/b", []byte("q"))
	if uk.FileSize("/b") != -1 {
		t.Error("rehydrated state aliases source state")
	}
}

func TestDirtyHotFaultsPages(t *testing.T) {
	uk, _ := booted(t)
	uk.Alloc(500 * mem.PageSize)

	// Capture-like downgrade, then clone as a deploy would.
	uk.Space().SetCoWAll()
	uk.Space().ClearDirty()
	uk.Space().Freeze()
	clone, _ := uk.Space().Clone()
	env2 := &CountingEnv{}
	uk2 := New(clone, hypercall.NewStubHost(), env2)
	uk2.Rehydrate(uk.State())

	uk2.DirtyHot(50)
	if got := clone.Faults.CoW; got == 0 {
		t.Error("DirtyHot produced no CoW faults")
	}
	if env2.CPU == 0 {
		t.Error("DirtyHot charged no time")
	}
}

func TestGuestReadWrite(t *testing.T) {
	uk, _ := booted(t)
	va, _ := uk.Alloc(64)
	if err := uk.writeGuest(va, []byte("unikernel")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if err := uk.ReadGuest(va, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "unikernel" {
		t.Errorf("read %q", buf)
	}
}

func TestCountingEnv(t *testing.T) {
	e := &CountingEnv{}
	e.ChargeCPU(2 * time.Millisecond)
	e.Block(3 * time.Millisecond)
	if _, err := e.HTTPGet("x"); err == nil {
		t.Fatal("HTTPGet reached a network")
	}
	if e.Elapsed() != 5*time.Millisecond {
		t.Errorf("Elapsed = %v", e.Elapsed())
	}
	e.Output("line")
	if len(e.Lines) != 1 {
		t.Error("output lost")
	}
	e.Reset()
	if e.Elapsed() != 0 || e.Lines != nil {
		t.Error("reset incomplete")
	}
}

func TestCountingEnvNoNetwork(t *testing.T) {
	e := &CountingEnv{}
	if _, err := e.HTTPGet("x"); err == nil {
		t.Error("HTTPGet without handler succeeded")
	}
}

func TestReadFileRoundTrip(t *testing.T) {
	uk, _ := booted(t)
	content := []byte("function main() { return 1; }")
	if err := uk.WriteFile("/fn/main.js", content); err != nil {
		t.Fatal(err)
	}
	got := uk.ReadFile("/fn/main.js")
	if string(got) != string(content) {
		t.Errorf("read %q", got)
	}
	if uk.ReadFile("/missing") != nil {
		t.Error("phantom file")
	}
}

func TestReadFileSurvivesRehydration(t *testing.T) {
	uk, _ := booted(t)
	uk.WriteFile("/cfg", []byte("answer=42"))
	st := uk.State()
	uk.Space().SetCoWAll()
	uk.Space().ClearDirty()
	uk.Space().Freeze()
	clone, err := uk.Space().Clone()
	if err != nil {
		t.Fatal(err)
	}
	uk2 := New(clone, hypercall.NewStubHost(), &CountingEnv{})
	uk2.Rehydrate(st)
	if got := uk2.ReadFile("/cfg"); string(got) != "answer=42" {
		t.Errorf("rehydrated read %q", got)
	}
}
