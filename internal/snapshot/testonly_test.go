package snapshot

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import "seuss/internal/mem"

// FootprintPages returns the number of private page-table pages plus
// diff pages this snapshot holds — its true marginal memory cost.
func (s *Snapshot) FootprintPages() int {
	if s.deleted {
		return 0
	}
	_, private := s.space.TableNodes()
	return s.diffPages + private
}

// Deleted reports whether Delete has succeeded on this snapshot.
func (s *Snapshot) Deleted() bool { return s.deleted }

// Deploys returns the lifetime count of deployments.
func (s *Snapshot) Deploys() int64 { return s.deploys }

// Registers returns the captured register state.
func (s *Snapshot) Registers() Registers { return s.regs }

// mustAlloc allocates a frame from a store whose budget is known to
// hold; it panics on exhaustion.
func mustAlloc(st *mem.Store) mem.Frame {
	f, err := st.Alloc()
	if err != nil {
		panic(err)
	}
	return f
}
