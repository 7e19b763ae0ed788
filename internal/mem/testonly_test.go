package mem

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

// MustAlloc is Alloc for contexts where the budget is known to hold
// (tests, bootstrapping); it panics on exhaustion.
func (s *Store) MustAlloc() Frame {
	f, err := s.Alloc()
	if err != nil {
		panic(err)
	}
	return f
}
