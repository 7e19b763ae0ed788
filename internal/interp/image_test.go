package interp

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seuss/internal/costs"
	"seuss/internal/hypercall"
	"seuss/internal/lang"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/pagetable"
	"seuss/internal/workload"
)

// isolationSource mutates one of each kind of state an image holds: a
// global, the driver's own object, a nested object, a global array (by
// a method call and by a method read off it at import), a counter a
// closure captured, and the builtin Math and JSON objects.
const isolationSource = `
var g = 0;
var nested = {a: {b: 1}};
var list = [1, 2];
var add = list.push;
function makeCounter() { var c = 0; return function() { c = c + 1; return c; }; }
var counter = makeCounter();
var seed = Math.random();
function main(args) {
	g = g + 1;
	__driver.status = "mutated";
	nested.a.b = nested.a.b + 1;
	list.push(g);
	add(7);
	Math.extra = g;
	JSON.extra = g;
	return {g: g, b: nested.a.b, n: list.length, c: counter(), m: Math.extra, j: JSON.extra,
		s: __driver.status, r: seed};
}
`

// committedSources is every guest source the repository ships: the
// workload generators', the driver and the warm script, the examples'
// and the README's, plus isolationSource and a module that uses the
// host services and the RNG while it is imported.
func committedSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"workload.NOPSource": workload.NOPSource,
		"workload.CPUBound":  workload.CPUBoundSource(5),
		"workload.IOBound":   workload.IOSpec("k", "http://backend.local/x", time.Millisecond).Source,
		"driverSource":       driverSource,
		"warmSource":         warmSource,
		"isolation":          isolationSource,
		"services": `var t0 = Date.now(); console.log("up"); sleep(1); var r0 = Math.random();
function main(a) { console.log("run"); return {t: t0, r: r0, again: Math.random(), now: Date.now()}; }`,
	}
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "function main") {
					srcs[fmt.Sprintf("%s@%d", path, lit.Pos())] = s
				}
			}
			return true
		})
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, block := range regexp.MustCompile("(?s)```go\n(.*?)```").FindAllStringSubmatch(string(readme), -1) {
		for j, m := range regexp.MustCompile("`([^`]*function main[^`]*)`").FindAllStringSubmatch(block[1], -1) {
			srcs[fmt.Sprintf("README go %d.%d", i, j)] = m[1]
		}
	}
	for i, m := range regexp.MustCompile(`"source":("(?:[^"\\]|\\.)*")`).FindAllStringSubmatch(string(readme), -1) {
		var s string
		if err := json.Unmarshal([]byte(m[1]), &s); err != nil {
			t.Fatal(err)
		}
		srcs[fmt.Sprintf("README json %d", i)] = s
	}
	return srcs
}

// bootUK boots a unikernel on its own store, with its host behind a
// crossing counter.
func bootUK(t testing.TB) (*libos.Unikernel, *hypercall.Counter) {
	t.Helper()
	as, err := pagetable.New(mem.NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	c := hypercall.NewCounter(hypercall.NewStubHost(), costs.Hypercall, nil)
	uk := libos.New(as, c, &libos.CountingEnv{})
	if err := uk.Boot(); err != nil {
		t.Fatal(err)
	}
	return uk, c
}

// replayFromState is the deploy every runtime paid before images: a
// new interpreter that re-parses and re-runs the driver, the warm
// script and the imported source, then parses and runs a statement
// that pokes the request counter back. It is the reference a restore
// from an image must be indistinguishable from.
func replayFromState(uk *libos.Unikernel, st State, diffPages int) (*Runtime, error) {
	prof, err := ProfileByName(profileName(st))
	if err != nil {
		return nil, err
	}
	r := NewRuntimeWithProfile(uk, prof)
	r.st = st
	r.st.Runtime = prof.Name
	r.st.DeployedDiffPages = diffPages
	r.silent = true
	defer func() { r.silent = false }()
	run := []string{}
	if st.DriverStarted {
		run = append(run, prof.DriverSource)
	}
	if st.InterpAO {
		run = append(run, prof.WarmSource)
	}
	if st.ImportedSource != "" {
		run = append(run, st.ImportedSource)
	}
	if st.DriverStarted && st.Requests > 0 {
		run = append(run, fmt.Sprintf("__driver.requests = %d;", st.Requests))
	}
	for _, src := range run {
		if _, err := r.in.RunSource(src); err != nil {
			return nil, err
		}
	}
	r.staleSeed = r.rngSeed
	return r, nil
}

// baseState is a runtime snapshot's payload; fnState a function
// snapshot's over it, after two requests.
var baseState = State{Runtime: NodeJS.Name, InterpWarm: true, InterpAO: true, DriverStarted: true}

func fnState(src string) State {
	st := baseState
	st.ImportedSource = src
	st.Requests = 2
	return st
}

// invoke3 connects r and returns its replies (or errors) to three
// invocations.
func invoke3(t *testing.T, r *Runtime) []string {
	t.Helper()
	if err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; i < 3; i++ {
		reply, err := r.Invoke(`{"name": "seuss", "n": 4, "rt": "nodejs"}`)
		if err != nil {
			reply = "error: " + err.Error()
		}
		out = append(out, reply)
	}
	return out
}

// TestImageRestoreIsReplay: for every committed source, a runtime
// restored from the function snapshot's image — derived from the
// runtime snapshot's image, or replayed from nothing — answers three
// invocations byte for byte as a runtime that replayed every source
// itself, starts from the same RNG baseline, and crosses the hypercall
// table the same number of times per call.
func TestImageRestoreIsReplay(t *testing.T) {
	base, err := BuildImage(baseState, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range committedSources(t) {
		st := fnState(src)
		derived, err := BuildImage(st, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full, err := BuildImage(st, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ukRef, cRef := bootUK(t)
		ref, err := replayFromState(ukRef, st, 40)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		refState, refSeed := ref.State(), ref.staleSeed
		want := invoke3(t, ref)
		for variant, img := range map[string]*Image{"derived": derived, "full": full} {
			uk, c := bootUK(t)
			r := Restore(uk, img, 40)
			if r.staleSeed != refSeed || r.rngSeed != refSeed {
				t.Errorf("%s/%s: seed %x/%x, replay %x", name, variant, r.staleSeed, r.rngSeed, refSeed)
			}
			if r.State() != refState {
				t.Errorf("%s/%s: state %+v, replay %+v", name, variant, r.State(), refState)
			}
			if got := invoke3(t, r); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s:\n got  %q\n want %q", name, variant, got, want)
			}
			if c.Counts() != cRef.Counts() {
				t.Errorf("%s/%s: hypercalls %v, replay %v", name, variant, c.Counts(), cRef.Counts())
			}
		}
	}
}

// TestImageClonesAreIsolated: a runtime that mutates every kind of
// state its image holds changes neither the image nor a sibling cloned
// from it.
func TestImageClonesAreIsolated(t *testing.T) {
	base, err := BuildImage(baseState, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildImage(fnState(isolationSource), base)
	if err != nil {
		t.Fatal(err)
	}
	first := func() string {
		uk, _ := bootUK(t)
		return invoke3(t, Restore(uk, img, 0))[0]
	}
	want := first()
	for _, field := range []string{`"g":1`, `"b":2`, `"n":4`, `"c":1`, `"m":1`, `"j":1`, `"s":"mutated"`, `"seq":3`} {
		if !strings.Contains(want, field) {
			t.Fatalf("first reply %s lacks %s", want, field)
		}
	}
	uk, _ := bootUK(t)
	busy := Restore(uk, img, 0)
	ukSib, _ := bootUK(t)
	sibling := Restore(ukSib, img, 0)
	if err := sibling.Connect(); err != nil {
		t.Fatal(err)
	}
	if got := invoke3(t, busy)[2]; !strings.Contains(got, `"g":3`) || !strings.Contains(got, `"n":8`) {
		t.Fatalf("third reply %s: state did not persist within a runtime", got)
	}
	if got, _ := sibling.Invoke(`{"name": "seuss", "n": 4, "rt": "nodejs"}`); got != want {
		t.Errorf("sibling's first reply %s, want %s", got, want)
	}
	if got := first(); got != want {
		t.Errorf("image changed: a new runtime's first reply %s, want %s", got, want)
	}
	if got, err := base.in.Clone(lang.Hooks{}).RunSource(`typeof g + typeof Math.extra + __driver.status`); err != nil || got != "undefinedundefinedlistening" {
		t.Errorf("base image changed: %v, %v", got, err)
	}
}

// TestImageClonesRunConcurrently: two runtimes restored from one image
// share its parsed code, and run on two goroutines at once (go test
// -race proves nothing they share is written).
func TestImageClonesRunConcurrently(t *testing.T) {
	base, err := BuildImage(baseState, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range committedSources(t) {
		img, err := BuildImage(fnState(src), base)
		if err != nil {
			t.Fatal(err)
		}
		var replies [2][]string
		var wg sync.WaitGroup
		for i := range replies {
			uk, _ := bootUK(t)
			r := Restore(uk, img, 0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := r.Connect(); err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 3; j++ {
					out, err := r.Invoke(`{"name": "seuss", "n": 4, "rt": "nodejs"}`)
					if err != nil {
						out = err.Error()
					}
					replies[i] = append(replies[i], out)
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(replies[0], replies[1]) {
			t.Errorf("%s: clones diverged: %q vs %q", name, replies[0], replies[1])
		}
	}
}
