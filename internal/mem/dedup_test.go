package mem

// The §5 contrast with KSM: a retroactive dedup scan over the store.

import (
	"crypto/sha256"
	"testing"
)

// DedupStats reports what a KSM-style retroactive deduplication scan
// would find. §5 contrasts SEUSS's ahead-of-time page sharing with
// KSM: SEUSS shares structurally (CoW from snapshots), so a scanner
// that fingerprints materialized frames finds little left to merge —
// and, unlike KSM, SEUSS sharing cannot leak co-residency through
// merge-timing side channels because it is never applied retroactively.
type DedupStats struct {
	// Scanned is the number of frames with materialized contents
	// (unmaterialized zero frames are implicitly deduplicated already).
	Scanned int
	// Duplicates is the number of frames whose contents equal some
	// earlier frame's — the pages KSM could merge.
	Duplicates int
	// DuplicateBytes is Duplicates * PageSize.
	DuplicateBytes int64
	// ZeroFrames counts unmaterialized (implicit zero) frames in use.
	ZeroFrames int
}

// Scanner fingerprints frame contents, modeling a KSM pass over one
// store's memory. Frames are registered with Track; Scan reports merge
// opportunities without performing merges (SEUSS never merges
// retroactively). Like its store, a scanner belongs to the store's
// goroutine.
type Scanner struct {
	st     *Store
	frames map[Frame]struct{}
}

// NewScanner returns an empty scanner over st's frames.
func NewScanner(st *Store) *Scanner {
	return &Scanner{st: st, frames: make(map[Frame]struct{})}
}

// Track registers a frame for scanning.
func (s *Scanner) Track(f Frame) { s.frames[f] = struct{}{} }

// Untrack removes a frame (freed or out of scope).
func (s *Scanner) Untrack(f Frame) { delete(s.frames, f) }

// Scan fingerprints every tracked live frame and reports duplicates.
func (s *Scanner) Scan() DedupStats {
	var stats DedupStats
	seen := make(map[[32]byte]bool)
	for f := range s.frames {
		if s.st.Refs(f) <= 0 {
			continue
		}
		content := s.st.Bytes(f)
		if content == nil {
			stats.ZeroFrames++
			continue
		}
		stats.Scanned++
		sum := sha256.Sum256(content)
		if seen[sum] {
			stats.Duplicates++
			stats.DuplicateBytes += PageSize
		} else {
			seen[sum] = true
		}
	}
	return stats
}

func TestScannerFindsDuplicates(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)
	mk := func(content byte) Frame {
		f := st.MustAlloc()
		st.Write(f, 0, []byte{content, content, content})
		sc.Track(f)
		return f
	}
	mk(1)
	mk(1) // duplicate of the first
	mk(2)
	zero := st.MustAlloc() // unmaterialized
	sc.Track(zero)

	stats := sc.Scan()
	if stats.Scanned != 3 {
		t.Errorf("scanned = %d", stats.Scanned)
	}
	if stats.Duplicates != 1 || stats.DuplicateBytes != PageSize {
		t.Errorf("duplicates = %d (%d bytes)", stats.Duplicates, stats.DuplicateBytes)
	}
	if stats.ZeroFrames != 1 {
		t.Errorf("zero frames = %d", stats.ZeroFrames)
	}
}

func TestScannerSkipsFreedFrames(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)
	f := st.MustAlloc()
	st.Write(f, 0, []byte{9})
	sc.Track(f)
	st.DecRef(f)
	stats := sc.Scan()
	if stats.Scanned != 0 {
		t.Errorf("scanned freed frame: %+v", stats)
	}
}

func TestScannerUntrack(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)
	f := st.MustAlloc()
	st.Write(f, 0, []byte{7})
	sc.Track(f)
	sc.Untrack(f)
	if stats := sc.Scan(); stats.Scanned != 0 {
		t.Errorf("scanned untracked frame: %+v", stats)
	}
}

// The §5 claim in miniature: after SEUSS-style CoW sharing, a KSM scan
// finds almost nothing to merge, because identical pages are already
// the same frame.
func TestStructuralSharingLeavesNothingForKSM(t *testing.T) {
	st := NewStore(0)
	sc := NewScanner(st)

	// One "snapshot" frame shared CoW by many consumers: a single
	// frame, many references.
	shared := st.MustAlloc()
	st.Write(shared, 0, []byte("interpreter page"))
	sc.Track(shared)
	for i := 0; i < 100; i++ {
		st.IncRef(shared) // 100 UCs map it
	}

	stats := sc.Scan()
	if stats.Duplicates != 0 {
		t.Errorf("structural sharing produced %d mergeable duplicates", stats.Duplicates)
	}
	if stats.Scanned != 1 {
		t.Errorf("scanned = %d, want the single shared frame", stats.Scanned)
	}

	// Contrast: 100 *copies* of the page (what full per-function images
	// would produce) give KSM 99 merge targets.
	for i := 0; i < 100; i++ {
		cp, err := st.Clone(shared)
		if err != nil {
			t.Fatal(err)
		}
		sc.Track(cp)
	}
	stats = sc.Scan()
	if stats.Duplicates != 100 {
		t.Errorf("duplicates = %d, want 100", stats.Duplicates)
	}
}
