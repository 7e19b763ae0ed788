package fault

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

// Register adds a fault point to the global registry (idempotent).
// Points need not be registered to fire; the registry exists so
// operators can enumerate what a build can inject.
func Register(pt Point, desc string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[pt]; !ok {
		registry[pt] = desc
	}
}
