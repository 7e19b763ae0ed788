package core

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"seuss/internal/sim"
)

// guestProgram is one program of the guest conformance corpus
// (testdata/guest/*.js): its source and, from its `// want:` lines, the
// driver's replies to three invocations on one UC, the i-th with
// guestArgs(i). internal/shardpool's TestGuestCorpusThroughAShard reads
// the same corpus.
type guestProgram struct {
	name, source string
	want         []string
}

func guestCorpus(t *testing.T) []guestProgram {
	t.Helper()
	files, err := filepath.Glob("../../testdata/guest/*.js")
	if err != nil || len(files) == 0 {
		t.Fatalf("no guest corpus: %v", err)
	}
	var out []guestProgram
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog := guestProgram{name: strings.TrimSuffix(filepath.Base(f), ".js"), source: string(src)}
		for _, line := range strings.Split(prog.source, "\n") {
			if want, ok := strings.CutPrefix(line, "// want: "); ok {
				prog.want = append(prog.want, want)
			}
		}
		if len(prog.want) != 3 {
			t.Fatalf("%s: %d want lines, want 3", f, len(prog.want))
		}
		out = append(out, prog)
	}
	return out
}

func guestArgs(i int) string { return fmt.Sprintf(`{"n": %d}`, i+1) }

// randomDraw is a Math.random draw in a reply. Under the entropy
// contract (DESIGN.md §14) a draw differs from UC to UC, so a corpus
// program returns each under a "random" key, and replies are compared
// with it masked.
var randomDraw = regexp.MustCompile(`"random":([-0-9.e]+)`)

// maskRandom returns out with every draw replaced by "*", and the draws.
func maskRandom(out string) (string, []string) {
	var draws []string
	for _, m := range randomDraw.FindAllStringSubmatch(out, -1) {
		draws = append(draws, m[1])
	}
	return randomDraw.ReplaceAllString(out, `"random":"*"`), draws
}

// TestGuestCorpusOnEveryPath runs each corpus program on one node three
// times over: on a cold UC, on a warm UC deployed from the function
// snapshot, and on a lukewarm one restored from the disk tier. Each
// time the first invocation takes that path and the other two are hot
// on the same UC, and every reply equals the program's want line: each
// path hands the guest the state the cold path's import left, and a
// hot UC keeps what its invocations changed.
//
// Then two UCs deployed from one snapshot serve three rounds side by
// side. Each replies as if it were alone, so neither reaches the
// other's state, and in every round their Math.random draws differ.
func TestGuestCorpusOnEveryPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapStore = newTierStore(t, -1)
	n, eng := newTestNode(t, cfg)
	compared := 0
	for _, prog := range guestCorpus(t) {
		key := "guest/" + prog.name
		req := func(i int) Request { return Request{Key: key, Source: prog.source, Args: guestArgs(i)} }
		for _, path := range []Path{PathCold, PathWarm, PathLukewarm} {
			switch path {
			case PathWarm:
				n.reclaimAll(nil)
			case PathLukewarm:
				n.dropSnapshot(nil, key)
			}
			for i, want := range prog.want {
				wantPath := PathHot
				if i == 0 {
					wantPath = path
				}
				res, err := invoke(t, n, eng, req(i))
				if err != nil || res.Path != wantPath {
					t.Fatalf("%s, %v UC, invocation %d: served %v (%v), want %v", prog.name, path, i+1, res.Path, err, wantPath)
				}
				if got, _ := maskRandom(res.Output); got != want {
					t.Errorf("%s, %v UC, invocation %d:\n got %s\nwant %s", prog.name, path, i+1, got, want)
				}
			}
		}

		n.reclaimAll(nil)
		for i, want := range prog.want {
			var res [2]Result
			var errs [2]error
			for u := range res {
				eng.Go("client", func(p *sim.Proc) { res[u], errs[u] = n.Invoke(p, req(i)) })
			}
			eng.Run()
			wantPath := PathHot
			if i == 0 {
				wantPath = PathWarm
			}
			var draws [2][]string
			for u := range res {
				if errs[u] != nil || res[u].Path != wantPath {
					t.Fatalf("%s, UC %d of 2, invocation %d: served %v (%v), want %v", prog.name, u+1, i+1, res[u].Path, errs[u], wantPath)
				}
				var got string
				got, draws[u] = maskRandom(res[u].Output)
				if got != want {
					t.Errorf("%s, UC %d of 2, invocation %d:\n got %s\nwant %s", prog.name, u+1, i+1, got, want)
				}
			}
			for d := range draws[0] {
				if draws[0][d] == draws[1][d] {
					t.Errorf("%s, invocation %d: two UCs from one snapshot drew the same Math.random %s", prog.name, i+1, draws[0][d])
				}
				compared++
			}
		}
	}
	if compared == 0 {
		t.Error("no corpus program drew Math.random")
	}
}
