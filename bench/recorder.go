package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory; they are written to
// out/trace.json when the run ends. Only the benchmark's own files
// record spans — around their calls into each layer — so the timed
// runs, which have no recorder, pay nothing for it.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add stores a finished span and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// begin opens a span now; end closes it.
func (r *recorder) begin(name string, req uint64, parent int) int {
	return r.add(span{Name: name, Req: req, Parent: parent, Start: r.at(time.Now())})
}

func (r *recorder) end(id int) {
	now := r.at(time.Now())
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// get returns span id.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id]
}

// children returns the direct children of span id among the spans
// recorded after it.
func (r *recorder) children(id int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans[id+1:] {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON under dir.
func (r *recorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since the traced run started", r.spans})
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
