package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/policy"
	"seuss/internal/sim"
	"seuss/internal/snapshot"
	"seuss/internal/uc"
)

// scanVictim is the linear scan pressure eviction made before the
// snapshots were kept ordered: the least recently used snapshot no
// other snapshot is stacked on, ties broken by key; "" if none.
func scanVictim(n *Node) string {
	var lruKey string
	var lru *fnEntry
	for key, entry := range n.fnSnaps {
		if entry.snap.Children() > 0 {
			continue
		}
		if lru == nil || entry.last < lru.last || (entry.last == lru.last && key < lruKey) {
			lru, lruKey = entry, key
		}
	}
	return lruKey
}

// checkLRU fails unless n.lru links exactly n.fnSnaps' entries, in
// (last, key) order, both ways.
func checkLRU(t *testing.T, n *Node, where string) {
	t.Helper()
	count := 0
	var prev *fnEntry
	for e := n.lru.head; e != nil; prev, e = e, e.next {
		count++
		if n.fnSnaps[e.key] != e {
			t.Fatalf("%s: listed entry %q is not the cached one", where, e.key)
		}
		if e.prev != prev {
			t.Fatalf("%s: %q's back link is broken", where, e.key)
		}
		if prev != nil && (prev.last > e.last || (prev.last == e.last && prev.key >= e.key)) {
			t.Fatalf("%s: %q (%v) listed before %q (%v)", where, prev.key, prev.last, e.key, e.last)
		}
	}
	if n.lru.tail != prev || count != len(n.fnSnaps) {
		t.Fatalf("%s: %d entries listed, %d cached", where, count, len(n.fnSnaps))
	}
}

// TestPressureEvictionMatchesScan drives seeded nodes — under a memory
// budget small enough that invocations evict too, with and without a
// lifecycle policy (which touches a lineage when a request finishes) —
// through rounds of concurrent invocations, which stamp several
// snapshots at one instant, and of child snapshots stacked on cached
// ones and deleted again. After every round the ordered list matches
// the cache, and an eviction takes exactly the victim the linear scan
// picks, skipping snapshots with children.
func TestPressureEvictionMatchesScan(t *testing.T) {
	var pressured int64
	for seed := int64(1); seed <= 12; seed++ {
		for _, withPolicy := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/policy=%v", seed, withPolicy), func(t *testing.T) {
				pressured += runEvictionAgainstScan(t, seed, withPolicy)
			})
		}
	}
	if pressured == 0 {
		t.Error("no invocation evicted under pressure: the budget is too loose to test that path")
	}
}

// runEvictionAgainstScan runs one seed and returns how many snapshots
// the node evicted under pressure on its own.
func runEvictionAgainstScan(t *testing.T, seed int64, withPolicy bool) (pressured int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.MemoryBytes = 180 << 20
	if withPolicy {
		pol, err := policy.New("fixed", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = pol
	}
	n, eng := newTestNode(t, cfg)
	type child struct {
		snap *snapshot.Snapshot
		base string
	}
	var children []child
	evictions := 0
	for round := 0; round < 40; round++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			key := fmt.Sprintf("fn%02d", rng.Intn(24))
			eng.Go("client", func(p *sim.Proc) {
				// A burst of cold starts can outrun the budget (a
				// guest that finds no frame crashes its UC); only the
				// victims are under test.
				_, err := n.Invoke(p, Request{Key: key, Source: nopSource, Args: "{}"})
				if err != nil && !errors.Is(err, mem.ErrOutOfMemory) && !errors.Is(err, ErrUCCrashed) {
					t.Errorf("round %d: invoke %s: %v", round, key, err)
				}
			})
		}
		eng.Run()
		checkLRU(t, n, fmt.Sprintf("round %d", round))

		switch keys := n.SnapshotKeys(); {
		case rng.Intn(3) == 0 && len(keys) > 0:
			// Stack a child on a cached snapshot: it may not be evicted
			// while the child lives.
			key := keys[rng.Intn(len(keys))]
			u, err := uc.Deploy(n.fnSnaps[key].snap, nil, &libos.CountingEnv{})
			if errors.Is(err, mem.ErrOutOfMemory) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			snap, err := u.Capture(fmt.Sprintf("child/%d", round), uc.TriggerPCPostCompile)
			u.Destroy()
			if err != nil {
				t.Fatal(err)
			}
			children = append(children, child{snap, key})
		case rng.Intn(3) == 0 && len(children) > 0:
			i := rng.Intn(len(children))
			if err := children[i].snap.Delete(); err != nil {
				t.Fatal(err)
			}
			children = append(children[:i], children[i+1:]...)
		}

		if rng.Intn(2) == 0 {
			continue
		}
		want := scanVictim(n)
		before := len(n.fnSnaps)
		var evicted bool
		eng.Go("evict", func(p *sim.Proc) { evicted = n.evictOneSnapshot(p) })
		eng.Run()
		_, stillCached := n.fnSnaps[want]
		switch {
		case want == "" && (evicted || len(n.fnSnaps) != before):
			t.Fatalf("round %d: the scan finds no victim, but %d → %d snapshots", round, before, len(n.fnSnaps))
		case want != "" && (!evicted || stillCached || len(n.fnSnaps) != before-1):
			t.Fatalf("round %d: the scan's victim is %q; evicted %v, still cached %v, %d → %d snapshots",
				round, want, evicted, stillCached, before, len(n.fnSnaps))
		}
		if want != "" {
			evictions++
		}
		checkLRU(t, n, fmt.Sprintf("round %d, after eviction", round))
	}
	for _, c := range children {
		if err := c.snap.Delete(); err != nil {
			t.Fatal(err)
		}
	}
	if evictions == 0 {
		t.Fatal("no eviction was checked")
	}
	return n.Stats().SnapshotsEvicted - int64(evictions)
}
