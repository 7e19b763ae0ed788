package sim

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The differential scheduling test. Run, RunUntil and RunProc skip host
// work (inline advance, caller-run processes, recycled workers) that a
// bare Step loop does not, and promise the same event order anyway.
// Each seed builds a random program and executes it under every driver;
// the logged (process, event, instant) sequences must be identical to
// the Step loop's.

var soak = flag.Int("sim.soak", 0, "additional differential-scheduling seeds to run after the fixed tier-1 set")

const tier1Seeds = 250

type opKind int

const (
	opSleep opKind = iota
	opYield
	opUse
	opHold // Acquire, sleep through body, Release
	opPut
	opPutFront
	opGet
	opTryGet
	opCloseQueue
	opWait
	opWaitTimeout
	opBroadcast
	opGo
	opAfter
	numOpKinds
)

// op is one step of a process body. Everything random about it is drawn
// when the program is generated, never while it runs, so each driver
// executes the same program.
type op struct {
	kind  opKind
	idx   int      // resource, queue or signal
	d     duration // sleep, service, timeout or callback delay
	val   int      // queue item
	hold  []duration
	child *procSpec // opGo, and opAfter with act == actGo
	act   action    // opAfter
}

// action is what a raw At/After callback does; callbacks cannot block.
type action int

const (
	actLog action = iota
	actPut
	actBroadcast
	actGo
	numActions
)

type procSpec struct {
	name string
	ops  []op
}

type rawEvent struct {
	at    Time
	act   action
	idx   int
	val   int
	child *procSpec
}

type program struct {
	capacities []int
	queues     int
	signals    int
	events     []rawEvent  // scheduled with At before anything runs
	first      []*procSpec // spawned with Go at instant zero
	split      Time        // the root process is spawned at this instant
	root       *procSpec
	// Every queue is closed and every signal broadcast one last time at
	// these instants, so no generated process can block forever: Get
	// returns once the queue closes, and Wait is only used before the
	// last broadcast (WaitTimeout after).
	closeAt       Time
	lastBroadcast Time
}

type generator struct {
	rng   *rand.Rand
	prog  *program
	procs int
}

// duration favours zero and a handful of small values, so that many
// events land on the same instant and tie-breaking by sequence number
// decides the order.
func (g *generator) duration() duration {
	return []duration{0, 0, 1, 1, 1, 2, 2, 3, 5, 8}[g.rng.Intn(10)]
}

func (g *generator) proc(prefix string, depth int) *procSpec {
	g.procs++
	spec := &procSpec{name: fmt.Sprintf("%s%d", prefix, g.procs)}
	n := 2 + g.rng.Intn(10)
	if depth > 0 {
		n = 1 + g.rng.Intn(5)
	}
	for i := 0; i < n; i++ {
		spec.ops = append(spec.ops, g.op(spec.name+".", depth))
	}
	return spec
}

func (g *generator) op(prefix string, depth int) op {
	p := g.prog
	o := op{kind: opKind(g.rng.Intn(int(numOpKinds))), d: g.duration(), val: g.rng.Intn(1000)}
	switch o.kind {
	case opUse:
		o.idx = g.rng.Intn(len(p.capacities))
	case opHold:
		o.idx = g.rng.Intn(len(p.capacities))
		for i := g.rng.Intn(3); i >= 0; i-- {
			o.hold = append(o.hold, g.duration())
		}
	case opPut, opPutFront, opGet, opTryGet, opCloseQueue:
		o.idx = g.rng.Intn(p.queues)
		if o.kind == opCloseQueue && g.rng.Intn(4) != 0 {
			o.kind = opGet // closing early is the rare case
		}
	case opWait, opWaitTimeout, opBroadcast:
		o.idx = g.rng.Intn(p.signals)
	case opGo:
		if depth >= 3 || g.procs > 40 {
			o.kind = opSleep
			break
		}
		o.child = g.proc(prefix, depth+1)
	case opAfter:
		o.act = action(g.rng.Intn(int(numActions)))
		switch o.act {
		case actPut:
			o.idx = g.rng.Intn(p.queues)
		case actBroadcast:
			o.idx = g.rng.Intn(p.signals)
		case actGo:
			if depth >= 3 || g.procs > 40 {
				o.act = actLog
				break
			}
			o.child = g.proc(prefix, depth+1)
		}
	}
	return o
}

func generate(seed int64) *program {
	rng := rand.New(rand.NewSource(seed))
	p := &program{
		queues:        1 + rng.Intn(3),
		signals:       1 + rng.Intn(2),
		split:         Time(rng.Intn(30)),
		closeAt:       Time(60 + rng.Intn(60)),
		lastBroadcast: Time(60 + rng.Intn(60)),
	}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		p.capacities = append(p.capacities, 1+rng.Intn(2))
	}
	g := &generator{rng: rng, prog: p}
	for i := 1 + rng.Intn(5); i > 0; i-- {
		p.first = append(p.first, g.proc("p", 0))
	}
	p.root = g.proc("root", 0)
	for i := rng.Intn(12); i > 0; i-- {
		ev := rawEvent{at: Time(rng.Intn(50)), act: action(rng.Intn(int(numActions))), val: rng.Intn(1000)}
		switch ev.act {
		case actPut:
			ev.idx = rng.Intn(p.queues)
		case actBroadcast:
			ev.idx = rng.Intn(p.signals)
		case actGo:
			ev.child = g.proc("ev", 1)
		}
		p.events = append(p.events, ev)
	}
	return p
}

// world is one execution of a program on one engine.
type world struct {
	t         *testing.T
	e         *Engine
	prog      *program
	resources []*Resource
	queues    []*Queue
	signals   []*Signal
	log       []string
	// limit is the horizon of the RunUntil call in progress: nothing
	// may be logged past it.
	limit Time
}

func newWorld(t *testing.T, prog *program) *world {
	w := &world{t: t, e: NewEngine(), prog: prog, limit: math.MaxInt64}
	for _, c := range prog.capacities {
		w.resources = append(w.resources, NewResource(w.e, c))
	}
	for i := 0; i < prog.queues; i++ {
		w.queues = append(w.queues, NewQueue(w.e))
	}
	for i := 0; i < prog.signals; i++ {
		w.signals = append(w.signals, NewSignal(w.e))
	}
	return w
}

func (w *world) record(who, what string) {
	now := w.e.Now()
	if now > w.limit {
		w.t.Errorf("%s %s ran at %d, past the RunUntil horizon %d", who, what, now, w.limit)
	}
	w.log = append(w.log, fmt.Sprintf("%s %s @%d", who, what, now))
}

func (w *world) put(who string, idx, val int, front bool) {
	q := w.queues[idx]
	if q.closed {
		w.record(who, fmt.Sprintf("put q%d closed", idx))
		return
	}
	w.record(who, fmt.Sprintf("put q%d %d front=%v", idx, val, front))
	if front {
		q.PutFront(val)
	} else {
		q.Put(val)
	}
}

func (w *world) do(who string, act action, idx, val int, child *procSpec) {
	switch act {
	case actLog:
		w.record(who, "callback")
	case actPut:
		w.put(who, idx, val, false)
	case actBroadcast:
		w.record(who, fmt.Sprintf("broadcast s%d waiters=%d", idx, w.signals[idx].Waiters()))
		w.signals[idx].Broadcast()
	case actGo:
		w.record(who, "go "+child.name)
		w.e.Go(child.name, w.body(child))
	}
}

func (w *world) body(spec *procSpec) func(p *Proc) {
	return func(p *Proc) {
		w.record(spec.name, "start")
		for _, o := range spec.ops {
			w.step(p, spec.name, o)
		}
		w.record(spec.name, "end")
	}
}

func (w *world) step(p *Proc, who string, o op) {
	switch o.kind {
	case opSleep:
		p.Sleep(o.d)
		w.record(who, "slept")
	case opYield:
		p.Yield()
		w.record(who, "yielded")
	case opUse:
		w.resources[o.idx].Use(p, o.d)
		w.record(who, fmt.Sprintf("used r%d", o.idx))
	case opHold:
		r := w.resources[o.idx]
		r.Acquire(p)
		w.record(who, fmt.Sprintf("acquired r%d inuse=%d queued=%d", o.idx, r.InUse(), r.QueueLen()))
		for _, d := range o.hold {
			p.Sleep(d)
		}
		r.Release()
		w.record(who, fmt.Sprintf("released r%d", o.idx))
	case opPut:
		w.put(who, o.idx, o.val, false)
	case opPutFront:
		w.put(who, o.idx, o.val, true)
	case opGet:
		v, ok := w.queues[o.idx].Get(p)
		w.record(who, fmt.Sprintf("got q%d %v %v", o.idx, v, ok))
	case opTryGet:
		v, ok := w.queues[o.idx].TryGet()
		w.record(who, fmt.Sprintf("tryget q%d %v %v", o.idx, v, ok))
	case opCloseQueue:
		w.record(who, fmt.Sprintf("close q%d", o.idx))
		w.queues[o.idx].Close()
	case opWait:
		if p.Now() < w.prog.lastBroadcast {
			w.signals[o.idx].Wait(p)
			w.record(who, fmt.Sprintf("woke s%d", o.idx))
			return
		}
		fallthrough
	case opWaitTimeout:
		ok := w.signals[o.idx].WaitTimeout(p, o.d)
		w.record(who, fmt.Sprintf("woke s%d signaled=%v", o.idx, ok))
	case opBroadcast:
		w.do(who, actBroadcast, o.idx, 0, nil)
	case opGo:
		w.do(who, actGo, 0, 0, o.child)
	case opAfter:
		w.record(who, "after")
		w.e.after(o.d, func() { w.do(who+".cb", o.act, o.idx, o.val, o.child) })
	}
}

type driver int

const (
	driveStep   driver = iota // bare Step loop: the reference
	driveRun                  // Run / one RunUntil
	driveSlices               // RunUntil in random slices
)

// stepUntil is RunUntil written with bare Steps.
func (w *world) stepUntil(t Time) {
	for len(w.e.pq) > 0 && w.e.pq[0].at <= t {
		w.e.step()
	}
	w.e.now = t
}

func (w *world) runUntil(t Time) {
	w.limit = t
	w.e.RunUntil(t)
	w.limit = math.MaxInt64
	if w.e.Now() != t {
		w.t.Errorf("RunUntil(%d) left the clock at %d", t, w.e.Now())
	}
	if w.e.Pending() > 0 && w.e.pq[0].at <= t {
		w.t.Errorf("RunUntil(%d) left an event pending at %d", t, w.e.pq[0].at)
	}
}

// execute runs the program: the first processes and the raw events from
// instant zero up to the split under d, then the root process — spawned
// with Go and drained under d, or handed to RunProc.
func execute(t *testing.T, prog *program, d driver, rootRunProc bool, sliceSeed int64) []string {
	w := newWorld(t, prog)
	e := w.e
	slices := rand.New(rand.NewSource(sliceSeed))
	for _, ev := range prog.events {
		ev := ev
		e.At(ev.at, func() { w.do("event", ev.act, ev.idx, ev.val, ev.child) })
	}
	for i := range w.queues {
		q := w.queues[i]
		e.At(prog.closeAt, q.Close)
	}
	for i := range w.signals {
		e.At(prog.lastBroadcast, w.signals[i].Broadcast)
	}
	for _, spec := range prog.first {
		e.Go(spec.name, w.body(spec))
	}

	switch d {
	case driveStep:
		w.stepUntil(prog.split)
	case driveRun:
		w.runUntil(prog.split)
	case driveSlices:
		for e.Now() < prog.split {
			next := e.Now() + Time(slices.Intn(4)) // zero-length slices included
			if next > prog.split {
				next = prog.split
			}
			w.runUntil(next)
		}
		w.runUntil(prog.split)
	}

	if rootRunProc {
		e.RunProc(prog.root.name, w.body(prog.root))
	} else {
		e.Go(prog.root.name, w.body(prog.root))
		switch d {
		case driveStep:
			for e.step() {
			}
		case driveRun:
			e.Run()
		case driveSlices:
			for e.Pending() > 0 {
				w.runUntil(e.Now() + Time(slices.Intn(6)))
			}
		}
	}
	if e.Pending() != 0 || e.LiveProcs() != 0 {
		t.Errorf("after drain: %d events pending, %d live processes", e.Pending(), e.LiveProcs())
	}
	return w.log
}

func checkSeed(t *testing.T, seed int64) {
	prog := generate(seed)
	want := execute(t, prog, driveStep, false, seed)
	for _, d := range []driver{driveStep, driveRun, driveSlices} {
		for _, rootRunProc := range []bool{false, true} {
			if d == driveStep && !rootRunProc {
				continue
			}
			got := execute(t, prog, d, rootRunProc, seed)
			if i := firstDifference(want, got); i >= 0 {
				t.Fatalf("seed %d, driver %d, RunProc root %v: event %d differs from the Step loop\n"+
					"step loop: %s\nthis run:  %s",
					seed, d, rootRunProc, i, context(want, i), context(got, i))
			}
		}
	}
}

func firstDifference(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func context(log []string, i int) string {
	lo, hi := i-3, i+2
	if lo < 0 {
		lo = 0
	}
	if hi > len(log) {
		hi = len(log)
	}
	return strings.Join(log[lo:hi], " | ")
}

func TestDifferentialScheduling(t *testing.T) {
	for seed := int64(1); seed <= int64(tier1Seeds+*soak); seed++ {
		checkSeed(t, seed)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// TestDifferentialProgramsAreBusy guards the generator: a change that
// made the programs trivial would leave the differential test green and
// worthless.
func TestDifferentialProgramsAreBusy(t *testing.T) {
	events, sameInstant := 0, 0
	for seed := int64(1); seed <= 50; seed++ {
		log := execute(t, generate(seed), driveStep, false, seed)
		events += len(log)
		for i := 1; i < len(log); i++ {
			if log[i][strings.LastIndexByte(log[i], '@'):] == log[i-1][strings.LastIndexByte(log[i-1], '@'):] {
				sameInstant++
			}
		}
	}
	if events < 50*40 || sameInstant < events/4 {
		t.Errorf("50 programs logged %d events, %d at the instant of the one before: too sparse to test tie-breaking", events, sameInstant)
	}
}

func TestStepNeverAdvancesInline(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		p.Sleep(5)
		p.Sleep(5)
	})
	e.step() // starts p, which parks in its first Sleep
	if e.Now() != 0 || e.Pending() != 1 {
		t.Fatalf("after one Step: clock %d, %d pending; want 0 and the wake-up", e.Now(), e.Pending())
	}
	e.step()
	if e.Now() != 5 || e.Pending() != 1 {
		t.Fatalf("after two Steps: clock %d, %d pending; want 5 and the second wake-up", e.Now(), e.Pending())
	}
	e.step()
	if e.Now() != 10 || e.Pending() != 0 || e.LiveProcs() != 0 {
		t.Fatalf("after three Steps: clock %d, %d pending, %d live", e.Now(), e.Pending(), e.LiveProcs())
	}
}

func TestRunUntilIsNotOvershotByInlineAdvance(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			woke = append(woke, p.Now())
		}
	})
	e.RunUntil(15)
	if e.Now() != 15 || len(woke) != 1 || e.Pending() != 1 {
		t.Fatalf("RunUntil(15): clock %d, woke %v, %d pending", e.Now(), woke, e.Pending())
	}
	e.RunUntil(20) // the horizon is inclusive
	if e.Now() != 20 || len(woke) != 2 || woke[1] != 20 {
		t.Fatalf("RunUntil(20): clock %d, woke %v", e.Now(), woke)
	}
	e.Run()
	if len(woke) != 3 || woke[2] != 30 || e.LiveProcs() != 0 {
		t.Fatalf("Run: woke %v, %d live", woke, e.LiveProcs())
	}
}

func TestRunProcMatchesGoRun(t *testing.T) {
	// A RunProc body that has to wait (a contended resource, a queue
	// fed by a Go process) steps the loop in place; the clock and the
	// results match Go + Run.
	run := func(viaRunProc bool) (Time, []string) {
		e := NewEngine()
		r := NewResource(e, 1)
		q := NewQueue(e)
		var log []string
		e.Go("holder", func(p *Proc) {
			r.Use(p, 7)
			log = append(log, fmt.Sprintf("holder done @%d", p.Now()))
			p.Sleep(3)
			q.Put("item")
		})
		body := func(p *Proc) {
			p.Sleep(1)
			r.Use(p, 2)
			log = append(log, fmt.Sprintf("root used @%d", p.Now()))
			v, _ := q.Get(p)
			log = append(log, fmt.Sprintf("root got %v @%d", v, p.Now()))
		}
		if viaRunProc {
			e.RunProc("root", body)
		} else {
			e.Go("root", body)
			e.Run()
		}
		if e.LiveProcs() != 0 {
			t.Errorf("live procs = %d", e.LiveProcs())
		}
		return e.Now(), log
	}
	wantNow, want := run(false)
	gotNow, got := run(true)
	if wantNow != gotNow || strings.Join(want, ";") != strings.Join(got, ";") {
		t.Errorf("RunProc: %v at %d; Go+Run: %v at %d", got, gotNow, want, wantNow)
	}
	if wantNow != 10 {
		t.Errorf("clock = %d, want 10", wantNow)
	}
}

func TestRunProcBlockedForeverPanics(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "blocked") {
			t.Fatalf("recovered %v, want the blocked-process panic", r)
		}
	}()
	e.RunProc("stuck", func(p *Proc) { q.Get(p) })
}

// trialShaped is the shape of workload.Trial over a faas cluster: C
// workers drain a closed queue, and every request spawns a short-lived
// activation process that contends for cores and replies on a queue.
func trialShaped(e *Engine, workers, requests int) (completed int) {
	work := NewQueue(e)
	for i := 0; i < requests; i++ {
		work.Put(i)
	}
	work.Close()
	cores := NewResource(e, 4)
	for w := 0; w < workers; w++ {
		e.Go("worker", func(p *Proc) {
			for {
				if _, ok := work.Get(p); !ok {
					return
				}
				reply := NewQueue(e)
				e.Go("activation", func(a *Proc) {
					for i := 0; i < 5; i++ {
						cores.Use(a, 50)
					}
					reply.Put(struct{}{})
				})
				reply.Get(p)
				completed++
			}
		})
	}
	e.Run()
	return completed
}

func TestNoGoroutineGrowthAcrossEngines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		e := NewEngine()
		if got := trialShaped(e, 8, 40); got != 40 {
			t.Fatalf("engine %d completed %d of 40", i, got)
		}
		if e.LiveProcs() != 0 {
			t.Fatalf("engine %d left %d live processes", i, e.LiveProcs())
		}
	}
	// Released workers exit on their own goroutines; give the
	// scheduler a moment to retire the last of them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after 1000 engines", before, after)
	}
}

func TestWorkersAreRecycledWithinARun(t *testing.T) {
	e := NewEngine()
	peak := 0
	base := runtime.NumGoroutine()
	e.Go("sampler", func(p *Proc) {
		for i := 0; i < 200; i++ {
			p.Sleep(100)
			if n := runtime.NumGoroutine() - base; n > peak {
				peak = n
			}
		}
	})
	if got := trialShaped(e, 8, 400); got != 400 {
		t.Fatalf("completed %d of 400", got)
	}
	// 8 workers, at most 8 activations in flight, and the sampler: 408
	// processes ran on no more than 17 goroutines.
	if peak > 17 {
		t.Errorf("peak of %d worker goroutines for 17 concurrent processes", peak)
	}
}

// TestRecycledWorkerPanicCrashes re-executes the test binary: a panic
// in a process body, on a worker that has already run other processes,
// must take the program down with the panic value on stderr, not be
// swallowed by the worker loop.
func TestRecycledWorkerPanicCrashes(t *testing.T) {
	if os.Getenv("SIM_TEST_PANIC_CHILD") == "1" {
		e := NewEngine()
		e.Go("first", func(p *Proc) { p.Sleep(1) })
		e.Go("spawner", func(p *Proc) {
			p.Sleep(5) // "first" has finished: its worker is idle
			e.Go("second", func(p *Proc) { panic("boom in a recycled worker") })
		})
		e.Run()
		// The dying worker's deferred yield lets Run return while the
		// panic is still unwinding; exiting here would race the crash.
		// Block instead: a swallowed panic ends as a runtime deadlock
		// error, which lacks the message the parent looks for.
		select {}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecycledWorkerPanicCrashes$")
	cmd.Env = append(os.Environ(), "SIM_TEST_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly:\n%s", out)
	}
	if !strings.Contains(string(out), "panic: boom in a recycled worker") {
		t.Fatalf("child output lacks the panic:\n%s", out)
	}
}
