package shardpool

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"seuss/internal/core"
)

// TestGuestCorpusThroughAShard runs each program of the guest
// conformance corpus (testdata/guest, read as internal/core's
// TestGuestCorpusOnEveryPath reads it) three times through a one-shard
// pool, whose node is hydrated from the encoded base snapshot rather
// than booted: a cold invocation and two hot ones, each reply equal to
// the program's want line with its Math.random draws masked.
func TestGuestCorpusThroughAShard(t *testing.T) {
	files, err := filepath.Glob("../../testdata/guest/*.js")
	if err != nil || len(files) == 0 {
		t.Fatalf("no guest corpus: %v", err)
	}
	randomDraw := regexp.MustCompile(`"random":[-0-9.e]+`)
	pool := newTestPool(t, testConfig(1))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for _, line := range strings.Split(string(src), "\n") {
			want, ok := strings.CutPrefix(line, "// want: ")
			if !ok {
				continue
			}
			res, err := pool.Invoke(core.Request{Key: "guest/" + f, Source: string(src), Args: fmt.Sprintf(`{"n": %d}`, i+1)})
			wantPath := core.PathHot
			if i == 0 {
				wantPath = core.PathCold
			}
			i++
			if err != nil || res.Path != wantPath {
				t.Fatalf("%s, invocation %d: served %v (%v), want %v", f, i, res.Path, err, wantPath)
			}
			if got := randomDraw.ReplaceAllString(res.Output, `"random":"*"`); got != want {
				t.Errorf("%s, invocation %d:\n got %s\nwant %s", f, i, got, want)
			}
		}
		if i != 3 {
			t.Errorf("%s: %d want lines, want 3", f, i)
		}
	}
}
