package seuss

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"seuss/internal/experiments"
)

var (
	updateResults = flag.Bool("update", false, "rewrite results/ from what this tree produces")
	resultsPolicy = flag.Bool("results.policy", false, "also regenerate the policy trace (about 25 s more, 0.25 GB peak RSS)")
)

// TestResultsByteIdentical regenerates every registry experiment that
// has a committed file under results/ and compares it byte for byte.
// The simulation is deterministic, so a difference is never noise: a
// change that means to move a number rewrites the files with -update
// and says so. Experiments run concurrently, each on its own engine;
// the process-global request and UC counters they share reach no
// output. An experiment without a series is held by its rendered text,
// and those share results/tables.txt in registry order.
//
//	go test -run TestResultsByteIdentical .                 # ~8 s
//	go test -run TestResultsByteIdentical -results.policy . # ~30 s
func TestResultsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates results/ (about 30 s)")
	}
	files := map[string][]string{} // file under results/ -> experiments, registry order
	var mu sync.Mutex
	outs := map[string]string{} // experiment -> its share of the file
	t.Run("run", func(t *testing.T) {
		for _, e := range experiments.Registry {
			file := e.PinnedFile()
			if file == "" || e.Name == "policy" && !*resultsPolicy {
				continue
			}
			files[file] = append(files[file], e.Name)
			e := e
			t.Run(e.Name, func(t *testing.T) {
				t.Parallel()
				res, err := e.Run(experiments.Params{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				out := res.Render() + "\n"
				if e.TSV != "" {
					out = res.(interface{ TSV() string }).TSV()
				}
				mu.Lock()
				outs[e.Name] = out
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	names := make([]string, 0, len(files))
	for file := range files {
		names = append(names, file)
	}
	sort.Strings(names)
	for _, file := range names {
		var got bytes.Buffer
		for _, e := range files[file] {
			got.WriteString(outs[e])
		}
		path := filepath.Join("results", file)
		if *updateResults {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from what this tree produces (%s); rewrite it with -update if the change means to move it",
				path, firstDiff(string(want), got.String()))
		}
	}
}

// firstDiff names the first line at which two texts differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: committed %q, now %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("committed %d lines, now %d", len(w), len(g))
}
