package main

import (
	"fmt"
	"runtime"
	"time"

	"seuss/internal/lang"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/pagetable"
	"seuss/internal/sim"
	"seuss/internal/snapshot"
	"seuss/internal/snapstore"
	"seuss/internal/uc"
)

// Per-layer timings the ladder's spans do not already give: calls into
// one package's exported functions, timed in batches, reported as the
// median batch's time per operation.

const (
	microSamples = 9
	// storeFillRef is the entry count, before the run's scale, that
	// snapstore.put_us is measured at (480 in a traced run of the default
	// length): the tier rewrites its manifest on every Put, so a Put
	// costs more the more entries the store holds.
	storeFillRef = 1600
)

// perOpUS times batch calls of op, samples times, and returns the
// median sample's µs per call.
func perOpUS(samples, batch int, op func()) float64 {
	per := make([]float64, samples)
	for s := range per {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		per[s] = float64(time.Since(start)) / 1e3 / float64(batch)
	}
	return median(per)
}

// allocsPer counts heap allocations per call of op, the way
// testing.AllocsPerRun does (one P, the malloc counter before and
// after), after one uncounted warm-up call. What op returns runs
// uncounted after it: teardown that is not part of the operation.
func allocsPer(runs int, op func(k int) (after func())) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var total uint64
	for k := 0; k <= runs; k++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		after := op(k)
		runtime.ReadMemStats(&ms)
		if k > 0 {
			total += ms.Mallocs - before
		}
		if after != nil {
			after()
		}
	}
	return float64(total) / float64(runs)
}

func (r *run) micro() error {
	res := r.res

	// sim: spawning a process that does nothing, and one park/resume.
	eng := sim.NewEngine()
	res.set("sim.spawn_us", perOpUS(microSamples, 500, func() {
		eng.Go("empty", func(*sim.Proc) {})
		eng.Run()
	}), microSamples*500)
	const handoffs = 2000
	res.set("sim.handoff_us", perOpUS(microSamples, 1, func() {
		eng.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < handoffs; i++ {
				p.Sleep(0)
			}
		})
		eng.Run()
	})/handoffs, microSamples*handoffs)

	// pagetable: demand-zero faults over a fixed window of one address
	// space, unmapped again between batches so the space never grows.
	st := mem.NewStore(0)
	as, err := pagetable.New(st)
	if err != nil {
		return err
	}
	const window, base = 512, uint64(0x4000_0000_0000)
	var ferr error
	faults := make([]float64, microSamples)
	for s := range faults {
		for j := uint64(0); j < window; j++ {
			// Nothing is mapped before the first batch.
			if err := as.Unmap(base + j*mem.PageSize); err != nil && s > 0 {
				ferr = err
			}
		}
		start := time.Now()
		for j := uint64(0); j < window; j++ {
			if err := as.Touch(base + j*mem.PageSize); err != nil {
				ferr = err
			}
		}
		faults[s] = float64(time.Since(start)) / 1e3 / window
	}
	if ferr != nil {
		return fmt.Errorf("pagetable window: %w", ferr)
	}
	if got := as.Faults.DemandZero; got != microSamples*window {
		return fmt.Errorf("pagetable window: %d demand-zero faults, wanted %d", got, microSamples*window)
	}
	res.set("pagetable.fault_us", median(faults), microSamples*window)
	as.Release()

	// mem: one frame allocated and freed.
	res.set("mem.alloc_free_us", perOpUS(microSamples, 2000, func() {
		f, err := st.Alloc()
		if err != nil {
			ferr = err
			return
		}
		st.DecRef(f)
	}), microSamples*2000)
	if ferr != nil {
		return fmt.Errorf("mem.Alloc: %w", ferr)
	}

	// lang: parsing the echo function, and running a program that
	// defines and calls it, on a bare interpreter.
	src := makeFn("micro", r.seed, 0).source
	res.set("lang.parse_us", perOpUS(microSamples, 200, func() {
		if _, err := lang.Parse(src); err != nil {
			ferr = err
		}
	}), microSamples*200)
	prog, err := lang.Parse(src + " main({n: 1234567});")
	if err != nil {
		return err
	}
	in := lang.New(lang.Hooks{})
	res.set("lang.run_us", perOpUS(microSamples, 200, func() {
		if _, err := in.Run(prog); err != nil {
			ferr = err
		}
	}), microSamples*200)
	if ferr != nil {
		return fmt.Errorf("lang: %w", ferr)
	}

	// snapstore: a Put into an empty store, and Puts into one that
	// already holds count(storeFillRef) entries.
	dir, err := r.sb.snapdir()
	if err != nil {
		return err
	}
	store, err := snapstore.Open(dir, -1)
	if err != nil {
		return err
	}
	storeFill := max(16, r.count(storeFillRef))
	blob := make([]byte, 20<<10) // about one encoded echo-function diff
	var puts []float64
	for i := 0; i < storeFill+microSamples*2; i++ {
		// The store is content-addressed: distinct bytes per key.
		copy(blob, fmt.Sprintf("entry %08d", i))
		start := time.Now()
		if err := store.Put(fmt.Sprintf("fn/fill/%08d", i), "runtime/nodejs", blob); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(start))/1e3)
	}
	res.set("snapstore.put_first_us", puts[0], 1)
	res.set("snapstore.put_us", median(puts[storeFill:]), len(puts)-storeFill)
	return nil
}

// counts measures what one invocation allocates, faults and keeps, on
// the spine's own runtime image.
func (l *ladder) counts(st *mem.Store, base, fnSnap *snapshot.Snapshot, env *libos.CountingEnv) error {
	res := l.r.res
	f := l.fns[0]
	var cerr error

	res.set("uc.deploy_allocs", allocsPer(spareFns, func(int) func() {
		u, err := uc.Deploy(fnSnap, nil, env)
		if err != nil {
			cerr = err
			return nil
		}
		// A UC that ran is not recycled as a deploy kit, so the next
		// deploy is a full one, as on the serving path.
		return func() {
			u.Guest().Connect()
			_, args := l.arg()
			u.Guest().Invoke(args)
			u.Destroy()
		}
	}), spareFns)

	u, err := uc.Deploy(fnSnap, nil, env)
	if err != nil {
		return err
	}
	if err := u.Guest().Connect(); err != nil {
		return err
	}
	invoke := func(int) func() {
		_, args := l.arg()
		if _, err := u.Guest().Invoke(args); err != nil {
			cerr = err
		}
		return nil
	}
	res.set("interp.invoke_allocs", allocsPer(spareFns, invoke), spareFns)
	var faults, frames []float64
	for k := 0; k < spareFns; k++ {
		f0, m0 := u.Space().Faults.Copied(), st.Stats().FramesInUse
		invoke(k)
		faults = append(faults, float64(u.Space().Faults.Copied()-f0))
		frames = append(frames, float64(st.Stats().FramesInUse-m0))
	}
	res.set("pagetable.faults_per_hot_invoke", median(faults), spareFns)
	res.set("mem.frames_per_hot_invoke", median(frames), spareFns)
	u.Destroy()

	// A cold start's faults: everything the guest touches between the
	// deploy from the base image and its first reply.
	c, err := uc.Deploy(base, nil, env)
	if err != nil {
		return err
	}
	f0 := c.Space().Faults.Copied()
	if err := c.Guest().Connect(); err != nil {
		return err
	}
	if err := c.Guest().ImportAndCompile(f.source); err != nil {
		return err
	}
	_, args := l.arg()
	if _, err := c.Guest().Invoke(args); err != nil {
		return err
	}
	res.set("pagetable.faults_per_cold", float64(c.Space().Faults.Copied()-f0), 1)
	c.Destroy()
	return cerr
}
