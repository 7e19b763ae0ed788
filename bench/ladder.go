package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"seuss"
	"seuss/internal/core"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/sim"
	"seuss/internal/snapshot"
	"seuss/internal/snapstore"
	"seuss/internal/uc"
)

// The ladder executes the same sampled requests four ways, outside in:
//
//	http   one connection, sequential, against the real binary
//	pool   seuss.NodePool.InvokeRuntime in this process
//	core   core.Node.Invoke on a bare sim.Engine
//	spine  the calls core makes into uc, snapshot, snapstore, interp and
//	       libos, driven by hand, each one a child span of the request
//
// A rung's self time is its median minus the median of the rung below;
// the spine's steps are the bottom. Spans go to the run's recorder under
// the request's sample index, so one request can be followed down.

// ladderRef is how many functions each path is measured on, before the
// run's scale: 150 in a traced run of the default length.
const ladderRef = 500

var ladderPaths = []string{"hot", "cold", "warm", "lukewarm"}

type ladder struct {
	r    *run
	rec  *recorder
	n    int  // functions sampled per path
	fns  []fn // the n sampled functions, then spare ones for allocation counts
	args *argSeq

	rung  map[string]map[string][]float64 // path → rung → µs samples
	steps map[string][]string             // path → spine steps inside the request, in order
	step  map[string]map[string][]float64 // path → step → µs samples
}

const spareFns = 32

// serverConfig is the node configuration cmd/seuss-node runs with, so
// the in-process rungs cross the same code the HTTP rung does.
func serverConfig() core.Config {
	cfg := seuss.NodeDefaults()
	cfg.Tracer = seuss.NewTrace(100000)
	cfg.Entropy = seuss.NewEntropySource()
	return cfg
}

// hydratedRuntime puts the base runtime image into st the way a pool
// shard gets it: booted once on a scratch store, exported, and
// materialized from the encoded bytes. A materialized image and one
// booted in place deploy at different costs, and every request the
// server serves starts from a materialized one.
func hydratedRuntime(st *mem.Store, cfg core.Config) (*snapshot.Snapshot, error) {
	boot, err := core.BootRuntime(mem.NewStore(0), cfg, "nodejs")
	if err != nil {
		return nil, err
	}
	var wire bytes.Buffer
	if err := boot.Export(&wire); err != nil {
		return nil, err
	}
	diff, err := snapshot.ImportBytes(wire.Bytes())
	if err != nil {
		return nil, err
	}
	snap, err := snapshot.Materialize(diff, st)
	if err != nil {
		return nil, err
	}
	payload, err := uc.DecodePayload(diff.PayloadBytes)
	if err != nil {
		return nil, err
	}
	snap.SetPayload(payload)
	return snap, nil
}

func (l *ladder) arg() (int64, string) {
	n := l.args.take()
	return n, fmt.Sprintf(`{"n":%d}`, n)
}

// checkEcho holds an in-process output against what was sent.
func (l *ladder) checkEcho(where, out string, f fn, n int64) {
	l.r.res.attempted++
	var e echoReply
	if err := json.Unmarshal([]byte(out), &e); err != nil || !e.matches(f, n) {
		l.r.res.invalid("%s: wrong echo for fn=%d n=%d: %s", where, f.id, n, out)
	}
}

func (l *ladder) addRung(path, rung string, d time.Duration) {
	if l.rung[path] == nil {
		l.rung[path] = map[string][]float64{}
	}
	l.rung[path][rung] = append(l.rung[path][rung], float64(d)/1e3)
}

// timed runs one spine step as a child span of parent. inRequest steps
// count towards the path's spine; the rest (teardown the node defers)
// are recorded as spans only.
func (l *ladder) timed(path, name string, req uint64, parent int, inRequest bool, f func() error) error {
	id := l.rec.begin(name, req, parent)
	err := f()
	l.rec.end(id)
	if err != nil {
		return fmt.Errorf("spine %s: %s: %w", path, name, err)
	}
	if l.step[path] == nil {
		l.step[path] = map[string][]float64{}
	}
	if _, seen := l.step[path][name]; !seen && inRequest {
		l.steps[path] = append(l.steps[path], name)
	}
	s := l.rec.get(id)
	l.step[path][name] = append(l.step[path][name], float64(s.End-s.Start)/1e3)
	return nil
}

// step is one call of a hand-driven request.
type step struct {
	name string
	f    func() error
}

// spineSelf names the request span's own time among a path's steps.
const spineSelf = "(request span outside its steps)"

// request drives one request by hand: its steps run as child spans of
// one request span, whose duration goes to the path's spine rung and
// whose self time — what the steps do not cover — to the path's steps.
func (l *ladder) request(path string, req uint64, steps ...step) error {
	id := l.rec.begin("spine."+path, req, -1)
	for _, s := range steps {
		if err := l.timed(path, s.name, req, id, true, s.f); err != nil {
			return err
		}
	}
	l.rec.end(id)
	s := l.rec.get(id)
	l.addRung(path, "spine", time.Duration(s.End-s.Start))
	l.step[path][spineSelf] = append(l.step[path][spineSelf], float64(selfTime(s, l.rec.children(id)))/1e3)
	return nil
}

// spines drives every path by hand. It also leaves behind what the
// per-layer counts need: the function snapshots and their wire sizes.
func (l *ladder) spines() error {
	cfg := serverConfig()
	st := mem.NewStore(0)
	runtime, err := hydratedRuntime(st, cfg)
	if err != nil {
		return err
	}
	dir, err := l.r.sb.snapdir()
	if err != nil {
		return err
	}
	store, err := snapstore.Open(dir, -1)
	if err != nil {
		return err
	}
	env := &libos.CountingEnv{}
	n := l.n
	snaps := make([]*snapshot.Snapshot, n)
	var diffPages, wireBytes []float64

	for i := 0; i < n; i++ {
		f, req := l.fns[i], uint64(i)
		an, args := l.arg()
		var u *uc.UC
		var out string
		err := l.request("cold", req,
			step{"uc.Deploy", func() (err error) { u, err = uc.Deploy(runtime, nil, env); return }},
			step{"libos.Connect", func() error { return u.Guest().Connect() }},
			step{"interp.ImportAndCompile", func() error { return u.Guest().ImportAndCompile(f.source) }},
			step{"uc.Capture", func() (err error) { snaps[i], err = u.Capture("fn/"+f.key, uc.TriggerPCPostCompile); return }},
			step{"interp.Invoke", func() (err error) { out, err = u.Guest().Invoke(args); return }},
		)
		if err != nil {
			return err
		}
		l.checkEcho("spine cold", out, f, an)
		// core keeps a cold UC idle; its teardown is not in the request.
		if err := l.timed("cold", "uc.Destroy", req, -1, false, func() error { u.Destroy(); return nil }); err != nil {
			return err
		}
		diffPages = append(diffPages, float64(snaps[i].DiffPages()))
	}

	for i := 0; i < n; i++ {
		f, req := l.fns[i], uint64(i)
		u, err := uc.Deploy(snaps[i], nil, env)
		if err != nil {
			return err
		}
		if err := u.Guest().Connect(); err != nil {
			return err
		}
		_, warmup := l.arg()
		if _, err := u.Guest().Invoke(warmup); err != nil {
			return err
		}
		an, args := l.arg()
		var out string
		err = l.request("hot", req,
			step{"interp.Invoke", func() (err error) { out, err = u.Guest().Invoke(args); return }})
		if err != nil {
			return err
		}
		l.checkEcho("spine hot", out, f, an)
		u.Destroy()
	}

	// Demote: what a drain does per resident snapshot.
	for i := 0; i < n; i++ {
		req := uint64(i)
		var wire bytes.Buffer
		err := l.request("demote", req,
			step{"snapshot.Export", func() error { return snaps[i].Export(&wire) }},
			step{"snapstore.Put", func() error { return store.Put(snaps[i].Name(), runtime.Name(), wire.Bytes()) }},
		)
		if err != nil {
			return err
		}
		wireBytes = append(wireBytes, float64(wire.Len()))
	}

	// Warm: a deploy from a resident function snapshot with no idle UC
	// to reuse. The server reaches it after a prewarm from the tier, so
	// the snapshot deployed here is a grafted one too.
	for i := 0; i < n; i++ {
		f, req := l.fns[i], uint64(i)
		data, err := store.Get(snaps[i].Name())
		if err != nil {
			return err
		}
		snap, payload, err := snapshot.GraftWire(data, runtime)
		if err != nil {
			return err
		}
		pl, err := uc.DecodePayload(payload)
		if err != nil {
			return err
		}
		snap.SetPayload(pl)
		an, args := l.arg()
		var u *uc.UC
		var out string
		err = l.request("warm", req,
			step{"uc.Deploy", func() (err error) { u, err = uc.Deploy(snap, nil, env); return }},
			step{"libos.Connect", func() error { return u.Guest().Connect() }},
			step{"interp.Invoke", func() (err error) { out, err = u.Guest().Invoke(args); return }},
		)
		if err != nil {
			return err
		}
		l.checkEcho("spine warm", out, f, an)
		if err := l.timed("warm", "uc.Destroy", req, -1, false, func() error { u.Destroy(); return nil }); err != nil {
			return err
		}
		if err := snap.Delete(); err != nil {
			return err
		}
	}

	// Lukewarm: first without a working set (which records one), then
	// with it — the restore every later boot performs.
	for _, path := range []string{"lukewarm_first", "lukewarm"} {
		for i := 0; i < n; i++ {
			f, req := l.fns[i], uint64(i)
			name := snaps[i].Name()
			an, args := l.arg()
			var (
				data, payload []byte
				ws            []uint64
				snap          *snapshot.Snapshot
				u             *uc.UC
				out           string
			)
			steps := []step{
				{"snapstore.Get", func() (err error) { data, err = store.Get(name); return }},
				{"snapstore.GetWorkingSetPages", func() error {
					var ok bool
					if ws, ok = store.GetWorkingSetPages(name); !ok && path == "lukewarm" {
						return fmt.Errorf("no working set recorded for %s", name)
					}
					return nil
				}},
				{"snapshot.GraftWire", func() (err error) { snap, payload, err = snapshot.GraftWire(data, runtime); return }},
				{"uc.DecodePayload", func() error {
					p, err := uc.DecodePayload(payload)
					snap.SetPayload(p)
					return err
				}},
				{"uc.DeployPrefetched", func() (err error) { u, _, err = uc.DeployPrefetched(snap, nil, env, ws); return }},
				{"libos.Connect", func() error { return u.Guest().Connect() }},
				{"interp.Invoke", func() (err error) { out, err = u.Guest().Invoke(args); return }},
			}
			if path == "lukewarm_first" {
				steps = append(steps, step{"snapstore.PutWorkingSet", func() error {
					rec, err := snapshot.EncodeWorkingSet(u.Space().DirtyPages())
					if err != nil {
						return err
					}
					return store.PutWorkingSet(name, rec)
				}})
			}
			if err := l.request(path, req, steps...); err != nil {
				return err
			}
			l.checkEcho("spine "+path, out, f, an)
			u.Destroy()
			if err := snap.Delete(); err != nil {
				return err
			}
		}
	}
	l.r.res.set("snapshot.diff_pages", median(diffPages), n)
	l.r.res.set("snapshot.wire_bytes", median(wireBytes), n)
	return l.counts(st, runtime, snaps[0], env)
}

// coreInvoke runs one request through core.Node.Invoke on its engine.
func (l *ladder) coreInvoke(node *core.Node, path string, i int, record bool) error {
	f := l.fns[i]
	an, args := l.arg()
	req := core.Request{Key: f.key, Source: f.source, Args: args}
	var res core.Result
	var err error
	id := -1
	if record {
		id = l.rec.begin("core.Invoke", uint64(i), -1)
	}
	start := time.Now()
	node.Engine().Go("invoke", func(p *sim.Proc) { res, err = node.Invoke(p, req) })
	node.Engine().Run()
	d := time.Since(start)
	if err != nil {
		return fmt.Errorf("core %s: %w", path, err)
	}
	if record {
		l.rec.end(id)
		l.addRung(path, "core", d)
	}
	if res.Path.String() != path {
		l.r.res.invalid("core rung: fn %d served %s, wanted %s", f.id, res.Path, path)
	}
	l.checkEcho("core "+path, res.Output, f, an)
	return nil
}

func (l *ladder) coreRung() error {
	dir, err := l.r.sb.snapdir()
	if err != nil {
		return err
	}
	store, err := snapstore.Open(dir, -1)
	if err != nil {
		return err
	}
	newNode := func() (*core.Node, error) {
		cfg := serverConfig()
		cfg.SnapStore = store
		cfg.Metrics = seuss.NewMetricsRecorder()
		st := mem.NewStore(cfg.Normalized().MemoryBytes / 2) // one of two shards
		base, err := hydratedRuntime(st, cfg)
		if err != nil {
			return nil, err
		}
		return core.NewNodeFromSnapshots(sim.NewEngine(), cfg, st, map[string]*snapshot.Snapshot{"nodejs": base})
	}
	n := l.n

	a, err := newNode()
	if err != nil {
		return err
	}
	for _, path := range []string{"cold", "hot"} {
		for i := 0; i < n; i++ {
			if err := l.coreInvoke(a, path, i, true); err != nil {
				return err
			}
		}
	}
	l.r.res.set("core.allocs_hot", allocsPer(spareFns, func(k int) func() { err = l.coreInvoke(a, "hot", k%n, false); return nil }), spareFns)
	if err != nil {
		return err
	}
	l.r.res.set("core.allocs_cold", allocsPer(spareFns-1, func(k int) func() { err = l.coreInvoke(a, "cold", n+k, false); return nil }), spareFns-1)
	if err != nil {
		return err
	}
	a.Engine().Go("flush", func(p *sim.Proc) { a.FlushSnapshots(p) })
	a.Engine().Run()

	// Warm: a fresh node prewarms every lineage from the store, as a
	// default boot does, and then serves each once.
	w, err := newNode()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var perr error
		w.Engine().Go("prewarm", func(p *sim.Proc) { perr = w.PromoteLineage(p, "fn/"+l.fns[i].key) })
		w.Engine().Run()
		if perr != nil {
			return fmt.Errorf("core warm: prewarm: %w", perr)
		}
		if err := l.coreInvoke(w, "warm", i, true); err != nil {
			return err
		}
	}

	// Lukewarm: a fresh node over the same store restores each lineage
	// (the first restore records the working set, the next one uses it).
	for _, record := range []bool{false, true} {
		node, err := newNode()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := l.coreInvoke(node, "lukewarm", i, record); err != nil {
				return err
			}
		}
	}
	return nil
}

// poolInvoke runs one request through NodePool.InvokeRuntime.
func (l *ladder) poolInvoke(pool *seuss.NodePool, path string, i int, record bool) error {
	f := l.fns[i]
	an, args := l.arg()
	id := -1
	if record {
		id = l.rec.begin("pool.InvokeRuntime", uint64(i), -1)
	}
	start := time.Now()
	inv, err := pool.InvokeRuntime("", f.key, f.source, args)
	d := time.Since(start)
	if err != nil {
		return fmt.Errorf("pool %s: %w", path, err)
	}
	if record {
		l.rec.end(id)
		l.addRung(path, "pool", d)
	}
	if inv.Path != path {
		l.r.res.invalid("pool rung: fn %d served %s, wanted %s", f.id, inv.Path, path)
	}
	l.checkEcho("pool "+path, inv.Output, f, an)
	return nil
}

func (l *ladder) poolRung() error {
	dir, err := l.r.sb.snapdir()
	if err != nil {
		return err
	}
	store, err := snapstore.Open(dir, -1)
	if err != nil {
		return err
	}
	newPool := func() (*seuss.NodePool, error) {
		cfg := serverConfig()
		cfg.SnapStore = store
		return seuss.NewNodePool(seuss.PoolConfig{Shards: 2, Node: cfg})
	}
	n := l.n
	// pass sends every sampled function through pool once.
	pass := func(pool *seuss.NodePool, path string, record bool) error {
		for i := 0; i < n; i++ {
			if err := l.poolInvoke(pool, path, i, record); err != nil {
				return err
			}
		}
		return nil
	}

	a, err := newPool()
	if err != nil {
		return err
	}
	defer a.Close()
	for _, path := range []string{"cold", "hot"} {
		if err := pass(a, path, true); err != nil {
			return err
		}
	}
	l.r.res.set("shardpool.allocs_hot", allocsPer(spareFns, func(k int) func() { err = l.poolInvoke(a, "hot", k%n, false); return nil }), spareFns)
	if err != nil {
		return err
	}
	if _, err := a.FlushSnapshots(); err != nil {
		return err
	}

	w, err := newPool()
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := w.Prewarm(0); err != nil {
		return err
	}
	if err := pass(w, "warm", true); err != nil {
		return err
	}

	for _, record := range []bool{false, true} {
		pool, err := newPool()
		if err != nil {
			return err
		}
		err = pass(pool, "lukewarm", record)
		pool.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// httpRung sends the sampled requests to the real binary over one
// connection, one at a time: no queueing, so a round trip is the whole
// stack's service time. Four boots over one -snapdir reach every path.
func (l *ladder) httpRung() error {
	dir, err := l.r.sb.snapdir()
	if err != nil {
		return err
	}
	fns := l.fns[:l.n]
	pass := func(n *node, path, pin string) error {
		args := l.r.echoArrivals(len(fns), l.args, func(i int) int { return i })
		pr, err := l.r.do(n, &phase{name: "http." + pin, fns: fns, arrivals: args, allow: path, pin: pin, conns: 1, spans: l.rec})
		if err != nil {
			return err
		}
		if pin == path {
			for _, us := range pr.latUS {
				l.addRung(path, "http", time.Duration(us*1e3))
			}
		}
		return nil
	}
	for _, boot := range []struct {
		flags    []string
		passes   [][2]string // path, pinned set
		graceful bool
	}{
		{nil, [][2]string{{"cold", "cold"}, {"hot", "hot"}}, true},
		{[]string{"-no-prewarm"}, [][2]string{{"lukewarm", "lukewarm_first"}}, true},
		{[]string{"-no-prewarm"}, [][2]string{{"lukewarm", "lukewarm"}}, false},
		{nil, [][2]string{{"warm", "warm"}}, false},
	} {
		n, err := l.r.sb.boot(append([]string{"-snapdir", dir}, boot.flags...)...)
		if err != nil {
			return err
		}
		for _, p := range boot.passes {
			if err := pass(n, p[0], p[1]); err != nil {
				n.kill()
				return err
			}
		}
		if boot.graceful {
			_, err = n.drain()
		} else {
			n.kill()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// layers is the traced run's second half: the ladder, the per-layer
// timings, the report and out/trace.json.
func (r *run) layers() error {
	l := &ladder{
		r: r, rec: r.rec, args: newArgSeq(r.rng), n: max(8, r.count(ladderRef)),
		rung:  map[string]map[string][]float64{},
		steps: map[string][]string{},
		step:  map[string]map[string][]float64{},
	}
	for i := 0; i < l.n+spareFns; i++ {
		l.fns = append(l.fns, makeFn("ladder", r.seed, i))
	}
	for _, rung := range []func() error{l.spines, l.coreRung, l.poolRung, l.httpRung, r.micro} {
		if err := rung(); err != nil {
			return err
		}
	}
	l.publish()
	path, err := r.rec.write("out")
	if err != nil {
		return err
	}
	r.res.notes = append(r.res.notes, fmt.Sprintf("%d spans written to bench/%s", len(r.rec.spans), path))
	return nil
}

// publish turns the ladder's samples into per-layer metrics and prints
// the ladder.
func (l *ladder) publish() {
	res := l.r.res
	med := func(path, rung string) float64 { return median(l.rung[path][rung]) }
	stepMed := func(path, name string) float64 { return median(l.step[path][name]) }
	for _, p := range ladderPaths {
		res.set("node.rtt_"+p+"_us", med(p, "http"), len(l.rung[p]["http"]))
		res.set("shardpool.invoke_"+p+"_us", med(p, "pool"), len(l.rung[p]["pool"]))
		res.set("core.invoke_"+p+"_us", med(p, "core"), len(l.rung[p]["core"]))
	}
	n := l.n
	for _, p := range []string{"hot", "cold"} {
		res.set("node.self_"+p+"_us", med(p, "http")-med(p, "pool"), n)
		res.set("core.self_"+p+"_us", med(p, "core")-med(p, "spine"), n)
	}
	res.set("shardpool.self_hot_us", med("hot", "pool")-med("hot", "core"), n)
	for metric, from := range map[string][2]string{
		"uc.deploy_us":             {"warm", "uc.Deploy"},
		"uc.deploy_prefetched_us":  {"lukewarm", "uc.DeployPrefetched"},
		"uc.capture_us":            {"cold", "uc.Capture"},
		"uc.destroy_us":            {"warm", "uc.Destroy"}, // after the request
		"uc.decode_payload_us":     {"lukewarm", "uc.DecodePayload"},
		"snapshot.export_us":       {"demote", "snapshot.Export"},
		"snapshot.graft_wire_us":   {"lukewarm", "snapshot.GraftWire"},
		"snapstore.get_us":         {"lukewarm", "snapstore.Get"},
		"snapstore.ws_get_us":      {"lukewarm", "snapstore.GetWorkingSetPages"},
		"interp.invoke_us":         {"hot", "interp.Invoke"},
		"interp.import_compile_us": {"cold", "interp.ImportAndCompile"},
		"libos.connect_us":         {"warm", "libos.Connect"},
	} {
		res.set(metric, stepMed(from[0], from[1]), len(l.step[from[0]][from[1]]))
	}

	w := os.Stdout
	fmt.Fprintf(w, "== ladder: %d sampled requests per path, medians in µs; self = rung − rung below\n", n)
	for _, p := range ladderPaths {
		fmt.Fprintf(w, "  path %s\n", p)
		rungs := []struct{ key, what string }{
			{"http", "seuss-node round trip, one connection"},
			{"pool", "NodePool.InvokeRuntime"},
			{"core", "core.Node.Invoke on a bare engine"},
			{"spine", "hand-driven request span"},
		}
		top := med(p, "http")
		var flags []string
		for i, rg := range rungs {
			self := ""
			if i+1 < len(rungs) {
				s := med(p, rg.key) - med(p, rungs[i+1].key)
				self = fmt.Sprintf("self %9.1f", s)
				// A rung may read a few percent under the one below it
				// when the layer between them costs next to nothing.
				if s < -0.05*med(p, rg.key) {
					flags = append(flags, fmt.Sprintf("%s is faster than %s: rungs out of order", rg.key, rungs[i+1].key))
				}
			}
			fmt.Fprintf(w, "    %-6s %-40s %10.1f  %s\n", rg.key, rg.what, med(p, rg.key), self)
		}
		parts := 0.0
		for _, name := range append(l.steps[p], spineSelf) {
			parts += stepMed(p, name)
			fmt.Fprintf(w, "      %-45s %10.1f\n", name, stepMed(p, name))
		}
		// The parts of the top rung: every spine step, the request
		// span's own time, and each rung's self time above it. They are
		// medians of different samples, so they need not add up.
		sum := parts + (med(p, "core") - med(p, "spine")) + (med(p, "pool") - med(p, "core")) + (top - med(p, "pool"))
		gap := 0.0
		if top > 0 {
			gap = (top - sum) / top
		}
		verdict := "ok"
		if gap > 0.15 || gap < -0.15 {
			flags = append(flags, fmt.Sprintf("parts sum to %.1f of %.1f µs", sum, top))
		}
		if len(flags) > 0 {
			verdict = "FLAGGED: " + fmt.Sprint(flags)
		}
		fmt.Fprintf(w, "    parts sum %.1f of %.1f µs (gap %.1f %%): %s\n", sum, top, gap*100, verdict)
	}
	fmt.Fprintf(w, "  demote (per resident snapshot at drain): snapshot.Export %.1f + snapstore.Put %.1f µs\n",
		stepMed("demote", "snapshot.Export"), stepMed("demote", "snapstore.Put"))
}
