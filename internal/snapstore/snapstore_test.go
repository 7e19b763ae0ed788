package snapstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"seuss/internal/interp"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/uc"
)

// encodeTestSnapshot boots a real runtime image and returns its encoded
// wire bytes — valid input for the codec-aware recovery paths.
func encodeTestSnapshot(t testing.TB, name string) []byte {
	t.Helper()
	st := mem.NewStore(0)
	prof, err := interp.ProfileByName("nodejs")
	if err != nil {
		t.Fatal(err)
	}
	boot, err := uc.BootFreshProfile(st, nil, &libos.CountingEnv{}, prof)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := boot.Capture(name, uc.TriggerPCDriverListen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("not-a-snapshot-but-bytes-round-trip-anyway")
	if err := s.Put("fn/a", "runtime/nodejs", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("fn/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: got %d bytes", len(got))
	}
	if _, err := s.Get("fn/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: got %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCapacityZeroRejectsEverything(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn/a", "", []byte("x")); !errors.Is(err, errNoCapacity) {
		t.Fatalf("cap 0 Put: got %v, want ErrNoCapacity", err)
	}
	if s.Len() != 0 {
		t.Fatalf("cap 0 store holds %d entries", s.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := Open(t.TempDir(), 25)
	if err != nil {
		t.Fatal(err)
	}
	ten := func(c byte) []byte { return bytes.Repeat([]byte{c}, 10) }
	for _, k := range []string{"a", "b"} {
		if err := s.Put("fn/"+k, "", ten(k[0])); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU victim.
	if _, err := s.Get("fn/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn/c", "", ten('c')); err != nil {
		t.Fatal(err)
	}
	if s.Has("fn/b") {
		t.Fatal("LRU entry fn/b survived eviction")
	}
	if !s.Has("fn/a") || !s.Has("fn/c") {
		t.Fatalf("wrong victim: a=%v c=%v", s.Has("fn/a"), s.Has("fn/c"))
	}
	if s.SizeBytes() > 25 {
		t.Fatalf("resident %d bytes > cap", s.SizeBytes())
	}
	// An entry larger than the whole capacity is refused, not thrashed.
	if err := s.Put("fn/huge", "", bytes.Repeat([]byte{'h'}, 26)); !errors.Is(err, errNoCapacity) {
		t.Fatalf("oversized Put: got %v", err)
	}
}

func TestEvictionCascadesThroughStack(t *testing.T) {
	s, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	// base ← mid ← top: a dependency chain recorded in the manifest.
	if err := s.Put("base", "", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("mid", "base", []byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("top", "mid", []byte("ABCDEFGHIJ")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stack("top"); len(got) != 3 || got[0] != "top" || got[2] != "base" {
		t.Fatalf("Stack(top) = %v", got)
	}
	// base is the LRU; evicting it must take mid and top with it — a
	// diff without its base can never promote.
	s.mu.Lock()
	s.cap = 15
	s.evictLocked(0)
	s.mu.Unlock()
	if s.Len() != 0 {
		t.Fatalf("stack eviction left %d entries (%v)", s.Len(), s.KeysMRU())
	}
}

func TestIdenticalContentDedupes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("identical-bytes")
	if err := s.Put("fn/a", "", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn/b", "", data); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("content addressing: %d files for identical bytes", len(snaps))
	}
	// Deleting one key keeps the shared file alive for the other.
	s.Delete("fn/a")
	if got, err := s.Get("fn/b"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("shared file lost with its sibling: %v", err)
	}
}

func TestReopenRestoresManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn/a", "runtime/nodejs", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("fn/a")
	if err != nil || string(got) != "persisted" {
		t.Fatalf("reopen lost the entry: %v", err)
	}
	if got := s2.Stack("fn/a"); len(got) != 1 {
		t.Fatalf("Stack after reopen = %v", got)
	}
}

// TestCrashRecovery simulates every kill -9 window of a demote:
// (a) mid-data-write — a stray temp file; (b) after the data rename but
// before the manifest write — a complete orphan .snap; (c) bit flips in
// a stored file. Open must GC (a), adopt (b), and CRC-reject (c).
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	valid := encodeTestSnapshot(t, "runtime/nodejs")

	// (a) a partial temp write.
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"partial"), valid[:len(valid)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// (b) a complete orphan .snap, no manifest at all.
	if err := os.WriteFile(filepath.Join(dir, "00000000deadbeef.snap"), valid, 0o644); err != nil {
		t.Fatal(err)
	}
	// (c) a damaged .snap (bit flip in the middle).
	damaged := append([]byte(nil), valid...)
	damaged[len(damaged)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "00000000badbadff.snap"), damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"partial")); !os.IsNotExist(err) {
		t.Fatal("temp file survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, "00000000badbadff.snap")); !os.IsNotExist(err) {
		t.Fatal("CRC-damaged file survived recovery")
	}
	got, err := s.Get("runtime/nodejs")
	if err != nil {
		t.Fatalf("orphan adoption failed: %v", err)
	}
	if !bytes.Equal(got, valid) {
		t.Fatal("adopted bytes differ from the original export")
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Fatalf("CorruptDropped = %d, want 1", st.CorruptDropped)
	}
}

// TestTornManifestRebuilds: a corrupt manifest must not wedge Open; the
// store rebuilds its index from the self-describing data files.
func TestTornManifestRebuilds(t *testing.T) {
	dir := t.TempDir()
	valid := encodeTestSnapshot(t, "runtime/nodejs")
	s, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("runtime/nodejs", "", valid); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":1,"ent`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("runtime/nodejs")
	if err != nil || !bytes.Equal(got, valid) {
		t.Fatalf("rebuild from data files failed: %v", err)
	}
}

// TestCorruptEntryDroppedOnGet: post-Open damage (disk rot) is caught
// by the manifest CRC at read time and the entry is dropped.
func TestCorruptEntryDroppedOnGet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fn/a", "", []byte("soon to rot")); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("%d snap files", len(snaps))
	}
	raw, _ := os.ReadFile(snaps[0])
	raw[0] ^= 0xff
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("fn/a"); !errors.Is(err, errCorrupt) {
		t.Fatalf("rot read: got %v, want ErrCorrupt", err)
	}
	if s.Has("fn/a") {
		t.Fatal("corrupt entry still resident")
	}
}

// TestSingleFlightGet: concurrent readers of one key share the result.
func TestSingleFlightGet(t *testing.T) {
	s, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("seuss"), 1024)
	if err := s.Put("fn/a", "", data); err != nil {
		t.Fatal(err)
	}
	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.Get("fn/a")
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- errors.New("mismatched bytes")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentPutGet exercises the store's locking under racing
// writers and readers across keys (run with -race).
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := "fn/" + string(rune('a'+g%4))
			payload := bytes.Repeat([]byte{byte('A' + g)}, 256)
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					if err := s.Put(key, "", payload); err != nil && !errors.Is(err, errNoCapacity) {
						t.Error(err)
						return
					}
				} else if _, err := s.Get(key); err != nil &&
					!errors.Is(err, ErrNotFound) && !errors.Is(err, errCorrupt) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestManifestIsAtomicallyWritten: the manifest on disk is always valid
// JSON (never a torn partial write), because it lands via rename.
func TestManifestIsAtomicallyWritten(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put("fn/"+strings.Repeat("x", i+1), "", []byte("data")); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("manifest torn after put %d: %v", i, err)
		}
	}
}
