package main

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"seuss/internal/experiments"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

func TestRegistryNamesUniqueAndNonEmpty(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range experiments.Registry {
		if e.Name == "" || e.Name == "all" {
			t.Errorf("entry %d has name %q", i, e.Name)
		}
		if seen[e.Name] {
			t.Errorf("name %q registered twice", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil {
			t.Errorf("%s has no Run", e.Name)
		}
		if got, err := experiments.Select(e.Name); err != nil || len(got) != 1 || got[0].Name != e.Name {
			t.Errorf("Select(%q) = %v, %v; want that one entry", e.Name, got, err)
		}
	}
}

func TestAllExcludesTrialAndBurst(t *testing.T) {
	all, err := experiments.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.Registry)-2 {
		t.Errorf("all selects %d of %d entries, want every one but trial and burst", len(all), len(experiments.Registry))
	}
	for _, e := range all {
		if e.Name == "trial" || e.Name == "burst" {
			t.Errorf("-run all includes %s", e.Name)
		}
	}
}

// TestUnknownExperimentRejected: a mistyped -run used to run nothing
// and exit 0.
func TestUnknownExperimentRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "nope"}, &stdout, &stderr)
	if !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want errUsage (exit 2)", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something: %q", stdout.String())
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %s: %v", name, err)
		}
	}
}

// TestHelpListsRegistry pins the -h listing, one line per experiment:
// name, whether -run all includes it, and the results/ file holding it.
func TestHelpListsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil {
		t.Errorf("-h: %v", err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			rows[f[0]] = f[1:]
		}
	}
	for _, e := range experiments.Registry {
		want := []string{"-", "-"}
		if e.All {
			want[0] = "all"
		}
		if f := e.PinnedFile(); f != "" {
			want[1] = "results/" + f
		}
		if got := rows[e.Name]; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("-h lists %s as %v, want %v", e.Name, got, want)
		}
	}
}

// TestDocCommentUsageListsExactlyTheRegistry keeps the synopsis at the
// top of main.go (what `go doc` shows) equal to the registry.
func TestDocCommentUsageListsExactlyTheRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("main.go has no package clause?")
	}
	m := regexp.MustCompile(`\[-run ([a-z0-9|]+)\]`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("doc comment has no [-run a|b|…] synopsis")
	}
	want := "all|" + strings.Join(experiments.Names(), "|")
	if m[1] != want {
		t.Errorf("doc comment lists -run %s\nregistry is           %s", m[1], want)
	}
}

func TestBuildClusterBackends(t *testing.T) {
	for _, backend := range []string{"seuss", "linux"} {
		c, err := experiments.NewPlatform(sim.NewEngine(), backend)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if c.Backend().Name() != backend {
			t.Errorf("backend = %q, want %q", c.Backend().Name(), backend)
		}
	}
	if _, err := experiments.NewPlatform(sim.NewEngine(), "nope"); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestTinyTrialThroughBenchWiring(t *testing.T) {
	eng := sim.NewEngine()
	c, err := experiments.NewPlatform(eng, "seuss")
	if err != nil {
		t.Fatal(err)
	}
	fns := []workload.Spec{workload.NOPSpec(0), workload.NOPSpec(1)}
	res := workload.Trial{N: 40, Fns: fns, C: 4, Seed: 1}.Run(eng, c)
	if res.Completed != 40 || res.Errors != 0 {
		t.Errorf("completed=%d errors=%d", res.Completed, res.Errors)
	}

	// The same trial through the flags.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "trial", "-n", "40", "-m", "2"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "backend=seuss N=40 M=2 C=32\ncompleted=40 errors=0 ") {
		t.Errorf("-run trial printed %q", stdout.String())
	}
}

func TestTinyBurstThroughBenchWiring(t *testing.T) {
	eng := sim.NewEngine()
	c, err := experiments.NewPlatform(eng, "linux")
	if err != nil {
		t.Fatal(err)
	}
	bg := []workload.Spec{workload.IOSpec("bg/io", "http://ext", 50_000_000)}
	tl := workload.Burst{
		Threads: 4, BGFns: bg, BGRate: 10,
		BurstEvery: 2_000_000_000, BurstSize: 4, BurstCPUms: 20, Bursts: 2, Seed: 1,
	}.Run(eng, c)
	if tl.Count("burst") != 8 {
		t.Errorf("burst count = %d", tl.Count("burst"))
	}
}
