package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"seuss/internal/interp"
	"seuss/internal/snapstore"
)

// newTierStore opens a snapshot store in a fresh temp directory.
func newTierStore(t *testing.T, capBytes int64) *snapstore.Store {
	t.Helper()
	st, err := snapstore.Open(t.TempDir(), capBytes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLukewarmPathServesFromTier is the end-to-end tier round trip: a
// node flushes its function snapshot to disk, and a second node sharing
// the store serves the same function via the lukewarm path — no
// interpreter replay — with the same output the in-RAM warm path
// produces.
func TestLukewarmPathServesFromTier(t *testing.T) {
	store := newTierStore(t, -1)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}

	cfgA := DefaultConfig()
	cfgA.SnapStore = store
	nA, engA := newTestNode(t, cfgA)
	if res, err := invoke(t, nA, engA, req); err != nil || res.Path != PathCold {
		t.Fatalf("first invoke: path=%v err=%v", res.Path, err)
	}
	if n := nA.FlushSnapshots(nil); n != 1 {
		t.Fatalf("flushed %d snapshots, want 1", n)
	}
	if !store.Has("fn/acct/fn") {
		t.Fatal("flush left no tier entry for fn/acct/fn")
	}

	// The warm path's output, for comparison: a store-less node whose
	// idle UC was reclaimed deploys from the in-RAM snapshot.
	nC, engC := newTestNode(t, DefaultConfig())
	if _, err := invoke(t, nC, engC, req); err != nil {
		t.Fatal(err)
	}
	nC.reclaimAll(nil)
	warmRes, err := invoke(t, nC, engC, req)
	if err != nil || warmRes.Path != PathWarm {
		t.Fatalf("warm reference: path=%v err=%v", warmRes.Path, err)
	}

	// A restarted node: nothing resident but the runtime image, the
	// store holds the function's stack.
	cfgB := DefaultConfig()
	cfgB.SnapStore = store
	nB, engB := newTestNode(t, cfgB)
	lukeRes, err := invoke(t, nB, engB, req)
	if err != nil {
		t.Fatal(err)
	}
	if lukeRes.Path != PathLukewarm {
		t.Fatalf("path = %v, want lukewarm", lukeRes.Path)
	}
	if lukeRes.Output != warmRes.Output {
		t.Errorf("lukewarm output %q != warm output %q", lukeRes.Output, warmRes.Output)
	}
	st := nB.Stats()
	if st.Lukewarm != 1 || st.TierHits == 0 || st.SnapshotsPromoted == 0 {
		t.Errorf("tier stats = %+v", st)
	}
	if st.Cold != 0 {
		t.Errorf("lukewarm restore went cold: %+v", st)
	}

	// The restored snapshot is a real cache resident: the next
	// invocation is hot or warm, not another promotion.
	again, err := invoke(t, nB, engB, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Path != PathHot && again.Path != PathWarm {
		t.Errorf("second path = %v, want hot or warm", again.Path)
	}
}

// TestLukewarmLatencyBetweenWarmAndCold pins the lukewarm path's place
// in the latency hierarchy: promotion charges real (virtual) time, so
// a disk restore is strictly slower than a warm deploy and strictly
// faster than a cold rebuild.
func TestLukewarmLatencyBetweenWarmAndCold(t *testing.T) {
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}

	nC, engC := newTestNode(t, DefaultConfig())
	coldRes, err := invoke(t, nC, engC, req)
	if err != nil || coldRes.Path != PathCold {
		t.Fatalf("cold: path=%v err=%v", coldRes.Path, err)
	}
	nC.reclaimAll(nil)
	warmRes, err := invoke(t, nC, engC, req)
	if err != nil || warmRes.Path != PathWarm {
		t.Fatalf("warm: path=%v err=%v", warmRes.Path, err)
	}

	store := newTierStore(t, -1)
	cfgA := DefaultConfig()
	cfgA.SnapStore = store
	nA, engA := newTestNode(t, cfgA)
	if _, err := invoke(t, nA, engA, req); err != nil {
		t.Fatal(err)
	}
	nA.FlushSnapshots(nil)

	cfgB := DefaultConfig()
	cfgB.SnapStore = store
	nB, engB := newTestNode(t, cfgB)
	lukeRes, err := invoke(t, nB, engB, req)
	if err != nil || lukeRes.Path != PathLukewarm {
		t.Fatalf("lukewarm: path=%v err=%v", lukeRes.Path, err)
	}

	if !(warmRes.Latency < lukeRes.Latency) {
		t.Errorf("lukewarm %v not slower than warm %v", lukeRes.Latency, warmRes.Latency)
	}
	if !(lukeRes.Latency < coldRes.Latency) {
		t.Errorf("lukewarm %v not faster than cold %v", lukeRes.Latency, coldRes.Latency)
	}
}

// TestPromotedSnapshotReExportsByteIdentical is the tier's integrity
// contract: the bytes demoted to disk, the bytes promoted back, and a
// re-export of the restored snapshot are all identical — so a restore
// is exact and a re-demotion dedupes onto the same content-addressed
// entry instead of growing the store.
func TestPromotedSnapshotReExportsByteIdentical(t *testing.T) {
	store := newTierStore(t, -1)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}

	cfgA := DefaultConfig()
	cfgA.SnapStore = store
	nA, engA := newTestNode(t, cfgA)
	if _, err := invoke(t, nA, engA, req); err != nil {
		t.Fatal(err)
	}
	nA.FlushSnapshots(nil)
	demoted, err := store.Get("fn/acct/fn")
	if err != nil {
		t.Fatal(err)
	}

	cfgB := DefaultConfig()
	cfgB.SnapStore = store
	nB, engB := newTestNode(t, cfgB)
	if res, err := invoke(t, nB, engB, req); err != nil || res.Path != PathLukewarm {
		t.Fatalf("path=%v err=%v", res.Path, err)
	}
	entry, ok := nB.fnSnaps["acct/fn"]
	if !ok {
		t.Fatal("promotion did not install the snapshot in the cache")
	}
	var reExport bytes.Buffer
	if err := entry.snap.Export(&reExport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reExport.Bytes(), demoted) {
		t.Fatalf("re-export of promoted snapshot differs from demoted bytes (%d vs %d bytes)",
			reExport.Len(), len(demoted))
	}

	// Re-demotion of identical content must not grow the store.
	sizeBefore := store.SizeBytes()
	if n := nB.FlushSnapshots(nil); n != 1 {
		t.Fatalf("re-flush wrote %d entries", n)
	}
	if store.SizeBytes() != sizeBefore {
		t.Errorf("re-demotion grew the store: %d -> %d bytes", sizeBefore, store.SizeBytes())
	}
}

// TestPressureEvictionsDemoteToTier reruns the staged-pressure workload
// with a disk tier attached: the degradation ladder must still serve
// every request, and each snapshot eviction must land in the store
// instead of destroying the only copy.
func TestPressureEvictionsDemoteToTier(t *testing.T) {
	store := newTierStore(t, -1)
	cfg := DefaultConfig()
	cfg.MemoryBytes = 140 << 20
	cfg.SnapStore = store
	n, eng := newTestNode(t, cfg)

	for round := 0; round < 3; round++ {
		for i := 0; i < 30; i++ {
			key := "fn-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			req := Request{Key: key, Source: nopSource, Args: "{}"}
			if _, err := invoke(t, n, eng, req); err != nil {
				t.Fatalf("round %d invoke %d (%s): %v", round, i, key, err)
			}
		}
	}
	st := n.Stats()
	if st.Errors != 0 {
		t.Fatalf("pressure with tier produced %d errors: %+v", st.Errors, st)
	}
	if st.SnapshotsEvicted == 0 {
		t.Fatalf("pressure never evicted; test exercised nothing: %+v", st)
	}
	if st.SnapshotsDemoted == 0 {
		t.Errorf("evictions destroyed snapshots instead of demoting: %+v", st)
	}
	if store.Len() == 0 {
		t.Error("no demoted entries reached the store")
	}
	if st.Lukewarm == 0 {
		t.Errorf("re-invocations of evicted functions never went lukewarm: %+v", st)
	}
}

// TestFullTierFallsBackToDestroy covers the degraded configuration: a
// zero-capacity store rejects every demotion, and eviction must fall
// back to plain destruction without erroring a single invocation.
func TestFullTierFallsBackToDestroy(t *testing.T) {
	store := newTierStore(t, 0)
	cfg := DefaultConfig()
	cfg.MemoryBytes = 140 << 20
	cfg.SnapStore = store
	n, eng := newTestNode(t, cfg)

	for i := 0; i < 30; i++ {
		key := "fn-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		req := Request{Key: key, Source: nopSource, Args: "{}"}
		if _, err := invoke(t, n, eng, req); err != nil {
			t.Fatalf("invoke %d (%s): %v", i, key, err)
		}
	}
	st := n.Stats()
	if st.Errors != 0 {
		t.Fatalf("full tier produced %d errors: %+v", st.Errors, st)
	}
	if st.SnapshotsEvicted == 0 {
		t.Fatalf("pressure never evicted; test exercised nothing: %+v", st)
	}
	if st.SnapshotsDemoted != 0 || store.Len() != 0 {
		t.Errorf("zero-capacity store accepted demotions: demoted=%d len=%d",
			st.SnapshotsDemoted, store.Len())
	}
	if store.Stats().PutRejected == 0 {
		t.Error("no Put was ever attempted against the full tier")
	}
}

// TestPrewarmRestoresLineage: PromoteLineage restores a flushed stack
// before any request arrives, so the first invocation after a restart
// is warm (or hot), not lukewarm or cold.
func TestPrewarmRestoresLineage(t *testing.T) {
	store := newTierStore(t, -1)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}

	cfgA := DefaultConfig()
	cfgA.SnapStore = store
	nA, engA := newTestNode(t, cfgA)
	if _, err := invoke(t, nA, engA, req); err != nil {
		t.Fatal(err)
	}
	nA.FlushSnapshots(nil)

	cfgB := DefaultConfig()
	cfgB.SnapStore = store
	nB, engB := newTestNode(t, cfgB)
	if err := nB.PromoteLineage(nil, "fn/acct/fn"); err != nil {
		t.Fatal(err)
	}
	st := nB.Stats()
	if st.SnapshotsPrewarmed == 0 {
		t.Errorf("prewarm not counted: %+v", st)
	}
	// Idempotent: a second prewarm of a resident lineage is a no-op.
	if err := nB.PromoteLineage(nil, "fn/acct/fn"); err != nil {
		t.Fatal(err)
	}
	if nB.Stats().SnapshotsPrewarmed != st.SnapshotsPrewarmed {
		t.Error("re-prewarm of a resident lineage promoted again")
	}

	res, err := invoke(t, nB, engB, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathWarm && res.Path != PathHot {
		t.Errorf("first post-prewarm path = %v, want warm or hot", res.Path)
	}
}

// gobEraPayload marshals the way builds before the "SEUP" payload codec
// did, so a test can plant the tier entry such a build's flush left.
type gobEraPayload struct{ source string }

func (g gobEraPayload) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	err := gob.NewEncoder(&b).Encode(struct{ Interp interp.State }{interp.State{ImportedSource: g.source}})
	return b.Bytes(), err
}

// TestGobEraTierEntryServesCold: a tier entry whose pages are intact but
// whose payload predates the payload codec can never promote. The
// request it would have served is answered cold, not failed, and the
// graft that could not get its payload is not cached.
func TestGobEraTierEntryServesCold(t *testing.T) {
	store := newTierStore(t, -1)
	req := Request{Key: "acct/fn", Source: nopSource, Args: "{}"}

	nA, engA := newTestNode(t, DefaultConfig())
	if _, err := invoke(t, nA, engA, req); err != nil {
		t.Fatal(err)
	}
	snap := nA.fnSnaps[req.Key].snap
	snap.SetPayload(gobEraPayload{nopSource})
	var wire bytes.Buffer
	if err := snap.Export(&wire); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("fn/"+req.Key, snap.Base().Name(), wire.Bytes()); err != nil {
		t.Fatal(err)
	}

	cfgB := DefaultConfig()
	cfgB.SnapStore = store
	nB, engB := newTestNode(t, cfgB)
	res, err := invoke(t, nB, engB, req)
	if err != nil {
		t.Fatalf("gob-era tier entry failed the request: %v", err)
	}
	if res.Path != PathCold {
		t.Errorf("path = %v, want cold", res.Path)
	}
	st := nB.Stats()
	if st.TierHits != 1 || st.SnapshotsPromoted != 0 || st.Lukewarm != 0 {
		t.Errorf("tier hits/promotions/lukewarm = %d/%d/%d, want 1/0/0", st.TierHits, st.SnapshotsPromoted, st.Lukewarm)
	}
	if nB.CachedSnapshots() != 1 {
		t.Errorf("cached snapshots = %d, want only the cold capture", nB.CachedSnapshots())
	}
}
