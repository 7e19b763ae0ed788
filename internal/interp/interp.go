// Package interp is the managed language runtime inside a unikernel
// context — the reproduction's stand-in for the Node.js port the SEUSS
// prototype links into Rumprun (§6).
//
// A Runtime couples the MiniJS interpreter (internal/lang) to a
// unikernel (internal/libos): every interpreter allocation lands in the
// UC's simulated address space through the unikernel's bump heap, every
// evaluation step charges virtual CPU time, and the OpenWhisk-style
// invocation driver is a real MiniJS script run through the real
// interpreter. Snapshot diffs and AO effects are therefore measured
// consequences of running code.
//
// Because Go object graphs cannot live inside simulated pages, each
// snapshot carries a State payload; deploying re-creates the Go-level
// interpreter by silently (zero virtual time, no allocation charging)
// replaying the deterministic import sequence — the simulation
// equivalent of the memory image already containing that state.
package interp

import (
	"errors"
	"fmt"
	"time"

	"seuss/internal/costs"
	"seuss/internal/entropy"
	"seuss/internal/lang"
	"seuss/internal/libos"
)

// driverSource is the invocation driver (§4): a real MiniJS script run
// at system initialization, before the runtime snapshot is captured. It
// keeps per-UC bookkeeping and wraps user functions with the platform's
// request/response protocol.
const driverSource = `
var __driver = {requests: 0, status: "listening", proto: "http/1.1"};
function __handle(payload) {
	__driver.requests = __driver.requests + 1;
	var req = JSON.parse(payload);
	var res = main(req.args);
	if (res === undefined) { res = null; }
	return JSON.stringify({ok: true, result: res, seq: __driver.requests});
}
function __status() {
	return JSON.stringify({status: __driver.status, requests: __driver.requests});
}
`

// warmSource is the "dummy" script of the interpreter anticipatory
// optimization: run through the interpreter before the base snapshot so
// parser tables, caches, and common code paths land in the shared image.
const warmSource = `
function __warm() {
	var acc = [];
	for (var i = 0; i < 64; i++) { acc.push(i * 3 + 1); }
	var text = JSON.stringify({vals: acc, tag: "anticipatory"});
	var back = JSON.parse(text);
	var s = "";
	for (var k in back) { s = s + k; }
	return back.vals.length + s.length;
}
__warm();
`

// errNoFunction is returned by Invoke before a function is imported.
var errNoFunction = errors.New("interp: no function imported")

// State is the interpreter half of a snapshot payload (libos carries
// the other half).
type State struct {
	// InterpWarm records the interpreter's lazy first-run
	// initialization has happened in this lineage.
	InterpWarm bool
	// InterpAO records warming happened before the base snapshot.
	InterpAO bool
	// DriverStarted records the invocation driver is loaded and
	// listening.
	DriverStarted bool
	// Runtime names the interpreter profile this lineage runs
	// ("nodejs" when empty, for compatibility).
	Runtime string
	// ImportedSource is the user function, once a cold path imported
	// it ("" before).
	ImportedSource string
	// Requests is the driver's request counter at capture time (lives
	// in __driver.requests inside the guest; mirrored here so
	// rehydration can restore it).
	Requests int
	// DeployedDiffPages is the page diff of the snapshot this runtime
	// was deployed from; the next invocation rewrites a fraction of it
	// (mutable runtime structures CoW back in).
	DeployedDiffPages int
}

// Runtime is the guest software stack above the unikernel.
type Runtime struct {
	uk      *libos.Unikernel
	in      *lang.Interp
	prof    Profile
	st      State
	conn    *libos.Conn
	silent  bool // rehydration replay: no charging
	allocs  int64
	hookErr error
	rngSeed uint64
	// pristine records that the interpreter environment still equals the
	// state RestoreFromState replayed — no driver or user code has run
	// since — so the whole guest stack can be recycled as a deploy kit.
	pristine bool
	// staleSeed is rngSeed as RestoreFromState left it: the byte-exact
	// restore baseline every clone of the snapshot shares. Kit recycling
	// rewinds to it so a recycled deploy starts from the same state a
	// fresh rehydration would — and then the deploying host MUST call
	// Reseed, on every path, or siblings replay one RNG stream (the
	// snapshot-uniqueness bug of arXiv 2102.12892).
	staleSeed uint64
}

// NewRuntimeWithProfile wires a specific interpreter flavor. The RNG
// starts on a placeholder seed; every boot and deploy path follows up
// with Reseed (host entropy + deploy generation), so no two runtimes
// serve traffic on this constant.
func NewRuntimeWithProfile(uk *libos.Unikernel, prof Profile) *Runtime {
	r := &Runtime{uk: uk, prof: prof, rngSeed: entropy.Golden}
	r.st.Runtime = prof.Name
	r.in = lang.New(r.hooks())
	return r
}

func (r *Runtime) hooks() lang.Hooks {
	return lang.Hooks{
		Alloc: func(n int) {
			if r.silent {
				return
			}
			r.allocs += int64(n)
			if _, err := r.uk.Alloc(int64(n)); err != nil && r.hookErr == nil {
				r.hookErr = err
			}
		},
		Step: func(n int) {
			if r.silent {
				return
			}
			r.uk.Env().ChargeCPU(time.Duration(n) * costs.StepTime)
		},
		Output: func(s string) {
			if r.silent {
				return
			}
			r.uk.Env().Output(s)
		},
		HTTPGet: func(url string) (string, error) {
			if r.silent {
				return "", nil
			}
			return r.uk.Env().HTTPGet(url)
		},
		Now: func() float64 {
			return float64(r.uk.Env().Now()) / float64(time.Millisecond)
		},
		Spin: func(ms float64) {
			if r.silent {
				return
			}
			r.uk.Env().ChargeCPU(time.Duration(ms * float64(time.Millisecond)))
		},
		Sleep: func(ms float64) {
			if r.silent {
				return
			}
			r.uk.Env().Block(time.Duration(ms * float64(time.Millisecond)))
		},
		Random: func() float64 {
			// xorshift64*: deterministic per runtime.
			r.rngSeed ^= r.rngSeed >> 12
			r.rngSeed ^= r.rngSeed << 25
			r.rngSeed ^= r.rngSeed >> 27
			return float64(r.rngSeed*0x2545F4914F6CDD1D>>11) / float64(uint64(1)<<53)
		},
	}
}

// Reseed re-derives the guest RNG seed from a host entropy draw and
// the deploy generation — the restore-time uniqueness step (DESIGN.md
// §14), called by the deploying host on every path: cold boot, warm
// deploy, lukewarm promote, recycled kit. The generation term alone
// guarantees sibling clones diverge (entropy.MixSeed is a bijection in
// gen), while a pinned (draw, gen) pair replays the identical stream —
// per-clone determinism for the fault matrix. Reseeding is host work,
// not guest activity, so it does not spoil pristineness.
func (r *Runtime) Reseed(draw, gen uint64) {
	r.rngSeed = entropy.MixSeed(draw, gen)
}

// RewindToStaleSeed undoes the deploy's reseed, returning the RNG to
// the shared restore baseline — the `entropy-stale` fault point's
// payload, which makes every clone replay one stream exactly as an
// unfixed snapshot restore would. No-op before the first restore.
func (r *Runtime) RewindToStaleSeed() {
	if r.staleSeed != 0 {
		r.rngSeed = r.staleSeed
	}
}

// Unikernel returns the underlying libos instance.
func (r *Runtime) Unikernel() *libos.Unikernel { return r.uk }

// State returns the interpreter payload for snapshot capture.
func (r *Runtime) State() State { return r.st }

// LimitSteps bounds the guest's *next* execution to n more interpreter
// steps (lang.ErrTooManySteps past the cap). This is how invocation
// deadlines reach the interpreter: deadline / costs.StepTime steps.
// n <= 0 removes the limit. The budget is relative to steps already
// consumed, so a long-lived hot UC never exhausts a lifetime budget.
func (r *Runtime) LimitSteps(n int64) { r.in.LimitSteps(n) }

// InitInterpreter loads the interpreter image into guest memory and
// boots it — the expensive once-per-interpreter step at system
// initialization (paid before the runtime snapshot, never on an
// invocation path).
func (r *Runtime) InitInterpreter() error {
	if !r.uk.Booted() {
		return libos.ErrNotBooted
	}
	r.pristine = false
	// Interpreter binary + initial heap: the bulk of the runtime image
	// (109.6 MB for the Node.js profile). Kernel, stack, and driver
	// make up the rest.
	if _, err := r.uk.Alloc(r.prof.ImageBytes); err != nil {
		return fmt.Errorf("interp: loading %s image: %w", r.prof.Name, err)
	}
	r.uk.Env().ChargeCPU(r.prof.InitCost)
	return nil
}

// StartDriver runs the invocation driver script and leaves the runtime
// listening for connections. Part of system initialization (B in Fig 2
// happens right after this).
func (r *Runtime) StartDriver() error {
	if r.st.DriverStarted {
		return errors.New("interp: driver already started")
	}
	r.pristine = false
	if err := r.uk.WriteFile("/driver.js", []byte(r.prof.DriverSource)); err != nil {
		return err
	}
	if _, err := r.in.RunSource(r.prof.DriverSource); err != nil {
		return fmt.Errorf("interp: driver script: %w", err)
	}
	r.st.DriverStarted = true
	return r.hookError()
}

// WarmInterpreter applies the interpreter anticipatory optimization:
// run the dummy script before capturing the base snapshot, migrating
// lazy interpreter initialization into the shared image and pre-growing
// caches to production depth.
func (r *Runtime) WarmInterpreter() error {
	r.pristine = false
	if err := r.ensureInterpFirstRun(); err != nil {
		return err
	}
	if _, err := r.in.RunSource(r.prof.WarmSource); err != nil {
		return fmt.Errorf("interp: warm script: %w", err)
	}
	if !r.st.InterpAO {
		if _, err := r.uk.Alloc(costs.InterpAOExtraBytes); err != nil {
			return err
		}
	}
	r.st.InterpAO = true
	return r.hookError()
}

// ensureInterpFirstRun performs the interpreter's lazy first-run
// initialization if this lineage never executed a script.
func (r *Runtime) ensureInterpFirstRun() error {
	if r.st.InterpWarm {
		return nil
	}
	if _, err := r.uk.Alloc(costs.InterpAOBytes); err != nil {
		return err
	}
	r.uk.Env().ChargeCPU(costs.InterpFirstUse)
	r.st.InterpWarm = true
	return nil
}

// Connect accepts the kernel's TCP connection into the UC (each
// deployed UC starts with its driver in a listening state).
func (r *Runtime) Connect() error {
	if !r.st.DriverStarted {
		return errors.New("interp: driver not started")
	}
	conn, err := r.uk.AcceptConnection()
	if err != nil {
		return err
	}
	r.conn = conn
	return nil
}

// connected reports whether a live connection exists.
func (r *Runtime) connected() bool { return r.conn != nil && r.conn.Alive() }

// ImportAndCompile receives user function source over the connection,
// compiles it, and defines it in the interpreter — the C step of a cold
// invocation. The function must define main(args).
func (r *Runtime) ImportAndCompile(src string) error {
	if !r.connected() {
		return errors.New("interp: import without connection")
	}
	r.pristine = false
	if err := r.conn.Send(int64(len(src))); err != nil {
		return err
	}
	if err := r.ensureInterpFirstRun(); err != nil {
		return err
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return fmt.Errorf("interp: compile: %w", err)
	}
	// Module machinery + compiled-code metadata land in the guest heap.
	if _, err := r.uk.Alloc(costs.ImportMachineryBytes + int64(costs.CompileAllocFactor*lang.TreeSize(prog))); err != nil {
		return err
	}
	r.uk.Env().ChargeCPU(costs.CompileBase + time.Duration(len(src))*costs.CompilePerByte)
	if err := r.uk.WriteFile("/fn/main.js", []byte(src)); err != nil {
		return err
	}
	if _, err := r.in.Run(prog); err != nil {
		return fmt.Errorf("interp: module evaluation: %w", err)
	}
	r.st.ImportedSource = src
	return r.hookError()
}

// Imported reports whether a user function is loaded.
func (r *Runtime) Imported() bool { return r.st.ImportedSource != "" }

// Invoke sends one set of arguments (a JSON document) into the driver
// and runs the function, returning the driver's JSON reply. This is the
// shared tail of cold, warm, and hot paths.
func (r *Runtime) Invoke(argsJSON string) (string, error) {
	if !r.Imported() {
		return "", errNoFunction
	}
	if !r.connected() {
		return "", errors.New("interp: invoke without connection")
	}
	if err := r.conn.Send(int64(len(argsJSON))); err != nil {
		return "", err
	}
	r.pristine = false
	r.uk.Env().ChargeCPU(costs.ArgImport)

	// Mutable runtime structures captured in the deployed image are
	// written on their next use and CoW back in: the per-invocation
	// cost that AO shrinks by shrinking diffs. The runtime's mutable
	// working set is finite, hence the cap.
	hot := int(float64(r.st.DeployedDiffPages) * costs.HotWriteFraction)
	if hot > costs.HotWriteCapPages {
		hot = costs.HotWriteCapPages
	}
	r.uk.DirtyHot(hot)
	r.st.DeployedDiffPages = 0 // only the first invocation after deploy re-dirties

	if _, err := r.uk.Alloc(costs.InvokeScratchBytes); err != nil {
		return "", err
	}
	if r.st.InterpAO {
		r.uk.Env().ChargeCPU(costs.DriverWarm)
	} else {
		r.uk.Env().ChargeCPU(costs.DriverCold)
	}

	payload := `{"args": ` + argsJSON + `}`
	r.st.Requests++
	v, err := r.in.CallGlobal("__handle", []lang.Value{payload})
	if err != nil {
		if te, ok := err.(*lang.ThrowError); ok {
			return `{"ok": false, "error": ` + lang.JSONStringify(lang.ToString(te.Value)) + `}`, nil
		}
		return "", err
	}
	if err := r.conn.Reply(int64(len(lang.ToString(v)))); err != nil {
		return "", err
	}
	if err := r.hookError(); err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("interp: driver returned %T", v)
	}
	return s, nil
}

// hookError surfaces allocation failures recorded by the lang hooks.
func (r *Runtime) hookError() error {
	err := r.hookErr
	r.hookErr = nil
	return err
}

// RestoreFromState rebuilds a runtime deployed from a snapshot: the
// unikernel must already be rehydrated. The driver script and imported
// source are replayed silently — zero virtual time, zero allocation
// charging — because on real hardware this state arrives inside the
// restored memory image. diffPages is the deployed snapshot's diff size.
func RestoreFromState(uk *libos.Unikernel, st State, diffPages int) (*Runtime, error) {
	name := st.Runtime
	if name == "" {
		name = NodeJS.Name
	}
	prof, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	r := NewRuntimeWithProfile(uk, prof)
	r.st = st
	r.st.Runtime = prof.Name
	r.st.DeployedDiffPages = diffPages
	r.silent = true
	defer func() { r.silent = false }()
	if st.DriverStarted {
		if _, err := r.in.RunSource(prof.DriverSource); err != nil {
			return nil, fmt.Errorf("interp: rehydrating driver: %w", err)
		}
	}
	if st.InterpAO {
		if _, err := r.in.RunSource(prof.WarmSource); err != nil {
			return nil, fmt.Errorf("interp: rehydrating warm state: %w", err)
		}
	}
	if st.ImportedSource != "" {
		if _, err := r.in.RunSource(st.ImportedSource); err != nil {
			return nil, fmt.Errorf("interp: rehydrating function: %w", err)
		}
	}
	if st.DriverStarted && st.Requests > 0 {
		// The captured driver counter arrives inside the memory image;
		// poke it back into the replayed interpreter.
		src := fmt.Sprintf("__driver.requests = %d;", st.Requests)
		if _, err := r.in.RunSource(src); err != nil {
			return nil, fmt.Errorf("interp: rehydrating driver counter: %w", err)
		}
	}
	r.pristine = true
	r.staleSeed = r.rngSeed
	return r, nil
}

// Pristine reports whether the interpreter environment still equals
// exactly what RestoreFromState replayed: no driver traffic, imports,
// or invocations have run since. A pristine runtime can be rebound to a
// fresh deployment of the same snapshot without replaying anything.
// Connecting does not spoil pristineness — connection state lives in
// libos and is reset by rehydration.
func (r *Runtime) Pristine() bool { return r.pristine }

// ResetForRedeploy rebinds a pristine runtime to a fresh deployment of
// the snapshot it was rehydrated from, restoring every field
// RestoreFromState would have set — without the replay, because
// pristine means the interpreter environment already matches. The
// unikernel must already be reattached and rehydrated. The RNG rewinds
// to the shared restore baseline; the deploy path reseeds it next, the
// same contract every other restore shape follows.
func (r *Runtime) ResetForRedeploy(st State, diffPages int) {
	r.st = st
	if r.st.Runtime == "" {
		r.st.Runtime = r.prof.Name
	}
	r.st.DeployedDiffPages = diffPages
	r.conn = nil
	r.silent = false
	r.allocs = 0
	r.hookErr = nil
	r.rngSeed = r.staleSeed
	r.in.LimitSteps(0)
}
