package mem

import "crypto/sha256"

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
// store's memory. Frames are registered as they materialize; Scan
// reports merge opportunities without performing merges (SEUSS never
// merges retroactively). Like its store, a scanner belongs to the
// store's goroutine.
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
