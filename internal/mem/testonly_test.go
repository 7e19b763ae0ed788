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

// Bytes returns a copy of f's whole 4 KB page, or nil for an
// unmaterialized (implicit zero) frame.
func (s *Store) Bytes(f Frame) []byte {
	if !s.Materialized(f) {
		return nil
	}
	b := make([]byte, PageSize)
	s.Read(f, 0, b)
	return b
}
