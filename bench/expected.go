package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"seuss"
)

// expected.json pins what must not change when only speed changes: the
// virtual latency each path reports for the echo function, and the full
// virtual outcome of a reference trial. -update-expected rewrites it; a
// performance change never should.

//go:embed expected.json
var expectedJSON []byte

type simPin struct {
	Seed      int64  `json:"seed"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	C         int    `json:"c"`
	Completed int    `json:"completed"`
	Errors    int    `json:"errors"`
	ElapsedNS int64  `json:"elapsed_ns"`
	P50NS     int64  `json:"p50_ns"`
	P99NS     int64  `json:"p99_ns"`
	Digest    string `json:"digest"`
}

type expected struct {
	// VirtualMS lists, per pinned set, every virtual latency_ms a
	// response may carry. Sets are named after paths; lukewarm has two,
	// for a lineage's first restore and for restores with a recorded
	// working set.
	VirtualMS map[string][]float64 `json:"virtual_latency_ms"`
	// Sim is the reference trial: small, fixed seed, run before every
	// sim_trial measurement and compared bit for bit.
	Sim simPin `json:"sim_reference"`

	updating bool
	seen     map[string]map[float64]bool
}

func loadExpected(updating bool) (*expected, error) {
	e := &expected{updating: updating, seen: map[string]map[float64]bool{}}
	if err := json.Unmarshal(expectedJSON, e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// allows reports whether ms is pinned for set. While updating it
// accepts and records everything.
func (e *expected) allows(set string, ms float64) bool {
	if e.updating {
		if e.seen[set] == nil {
			e.seen[set] = map[float64]bool{}
		}
		e.seen[set][ms] = true
		return true
	}
	for _, v := range e.VirtualMS[set] {
		if v == ms {
			return true
		}
	}
	return false
}

// save merges what this run observed into expected.json.
func (e *expected) save() error {
	if e.VirtualMS == nil {
		e.VirtualMS = map[string][]float64{}
	}
	for set, vals := range e.seen {
		var list []float64
		for v := range vals {
			list = append(list, v)
		}
		sort.Float64s(list)
		e.VirtualMS[set] = list
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("expected.json", append(out, '\n'), 0o644)
}

// digestTrial folds every virtual number a trial produced into one
// hash: counts, elapsed time, and each latency and completion instant
// in completion order.
func digestTrial(r seuss.TrialResult) string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(r.Completed))
	put(int64(r.Errors))
	put(int64(r.Elapsed))
	for _, series := range [][]time.Duration{r.Latencies, r.Completions} {
		put(int64(len(series)))
		for _, d := range series {
			put(int64(d))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
