package uc

import (
	"strings"
	"testing"

	"seuss/internal/hypercall"
	"seuss/internal/libos"
	"seuss/internal/mem"
)

// TestKitRecyclingRoundTrip: a destroy of a pristine UC parks a kit on
// the deploy source, and the next deploy takes it — producing a UC that
// is indistinguishable from a freshly rehydrated one.
func TestKitRecyclingRoundTrip(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	env := &libos.CountingEnv{}

	first, err := Deploy(runtime, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	firstID := first.ID()
	first.Destroy()
	if got := runtime.CachedDeployKits(); got != 1 {
		t.Fatalf("CachedDeployKits = %d after pristine destroy, want 1", got)
	}

	second, err := Deploy(runtime, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.CachedDeployKits(); got != 0 {
		t.Fatalf("CachedDeployKits = %d after redeploy, want 0", got)
	}
	if second.ID() == firstID {
		t.Error("recycled UC kept its old identity")
	}
	if second.State() != stateIdle {
		t.Errorf("recycled state = %v", second.State())
	}
	if second.From() != runtime {
		t.Error("recycled deploy source wrong")
	}
	// Exactly one crossing: the accounting was reset on recycle, then the
	// redeploy's uniqueness re-draw crossed once for its entropy.
	if second.Hypercalls().Total() != 1 {
		t.Errorf("recycled UC has %d hypercall crossings, want 1 (the entropy re-draw)", second.Hypercalls().Total())
	}
	if second.Hypercalls().Counts()[hypercall.NumEntropy] != 1 {
		t.Error("the recycled UC's single crossing is not the entropy draw")
	}

	// The recycled UC must work end to end.
	if err := second.Guest().Connect(); err != nil {
		t.Fatal(err)
	}
	if err := second.Guest().ImportAndCompile(nopSource); err != nil {
		t.Fatal(err)
	}
	out, err := second.Guest().Invoke(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	// seq 1: the driver counter was reset to the payload's value.
	if !strings.Contains(out, `"seq":1`) {
		t.Errorf("recycled driver counter leaked: %q", out)
	}
	second.Destroy()
}

// TestKitNotRecycledAfterExecution: any interpreter activity (import,
// invoke, status query) spoils pristineness, so the kit is dropped.
func TestKitNotRecycledAfterExecution(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	env := &libos.CountingEnv{}

	u, err := Deploy(runtime, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	u.Guest().Connect()
	if err := u.Guest().ImportAndCompile(nopSource); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Guest().Invoke(`{}`); err != nil {
		t.Fatal(err)
	}
	u.Destroy()
	if got := runtime.CachedDeployKits(); got != 0 {
		t.Fatalf("CachedDeployKits = %d after invoked destroy, want 0", got)
	}

	// Connect alone does NOT spoil pristineness: connection state lives
	// in libos and rehydration resets it.
	v, err := Deploy(runtime, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	v.Guest().Connect()
	v.Destroy()
	if got := runtime.CachedDeployKits(); got != 1 {
		t.Fatalf("CachedDeployKits = %d after connect-only destroy, want 1", got)
	}
}

// TestKitRecycledDeployEquivalence: a recycled-kit deploy behaves like
// a fresh deploy in both directions that matter. By default the two
// clones DIVERGE — each deploy drew its own entropy and generation, so
// neither replays the other's Math.random stream (restore-time
// uniqueness, DESIGN.md §14). With the reseed pinned to one (draw,
// generation) pair, they are byte-identical — per-clone replay
// determinism survives the uniqueness layer.
func TestKitRecycledDeployEquivalence(t *testing.T) {
	const randSource = `
function main(args) {
	var a = Math.random();
	var b = Math.random();
	return {a: a, b: b, sum: args.x + 1};
}
`
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	env := &libos.CountingEnv{}

	// Build a function snapshot so the payload carries imported source.
	builder, err := Deploy(runtime, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	builder.Guest().Connect()
	if err := builder.Guest().ImportAndCompile(randSource); err != nil {
		t.Fatal(err)
	}
	fnSnap, err := builder.Capture("fn/rand", TriggerPCPostCompile)
	if err != nil {
		t.Fatal(err)
	}
	builder.Destroy()

	invoke := func(u *UC) string {
		t.Helper()
		if err := u.Guest().Connect(); err != nil {
			t.Fatal(err)
		}
		out, err := u.Guest().Invoke(`{"x": 41}`)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	fresh, err := Deploy(fnSnap, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	want := invoke(fresh)
	fresh.Destroy() // invoked → not pristine, no kit

	// Park a pristine kit, then deploy through it.
	idle, err := Deploy(fnSnap, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	idle.Destroy()
	if fnSnap.CachedDeployKits() != 1 {
		t.Fatal("no kit parked")
	}
	recycled, err := Deploy(fnSnap, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := invoke(recycled); got == want {
		t.Errorf("recycled clone replayed the fresh clone's RNG stream: %s", got)
	}
	recycled.Destroy()

	// Pinned reseed: the same (draw, generation) pair replays the same
	// stream on both the fresh and the recycled path.
	pin := func(u *UC) string {
		u.Guest().Reseed(0xD0A7, 7)
		return invoke(u)
	}
	a, err := Deploy(fnSnap, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	pinnedWant := pin(a)
	a.Destroy()
	b, err := Deploy(fnSnap, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	b.Destroy() // pristine → parks a kit
	if fnSnap.CachedDeployKits() != 1 {
		t.Fatal("no kit parked for the pinned pass")
	}
	c, err := Deploy(fnSnap, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Recycled() {
		t.Fatal("pinned pass did not exercise the kit path")
	}
	if got := pin(c); got != pinnedWant {
		t.Errorf("pinned reseed not deterministic:\nfresh:    %s\nrecycled: %s", pinnedWant, got)
	}
	c.Destroy()
}

// TestKitDeployFootprintStable: recycling must not leak frames — the
// store's in-use accounting returns to baseline across deploy/destroy
// cycles through the kit path.
func TestKitDeployFootprintStable(t *testing.T) {
	st := mem.NewStore(0)
	runtime := initRuntimeSnapshot(t, st, true)
	env := &libos.CountingEnv{}

	// Prime the kit cache and every pool.
	u, err := Deploy(runtime, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	u.Destroy()
	base := st.Stats().FramesInUse
	for i := 0; i < 20; i++ {
		u, err := Deploy(runtime, nil, env)
		if err != nil {
			t.Fatal(err)
		}
		u.Destroy()
	}
	if got := st.Stats().FramesInUse; got != base {
		t.Errorf("frame accounting drifted over kit cycles: %d -> %d", base, got)
	}
}
