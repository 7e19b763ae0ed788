package policy

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

// PressureEvents reports how many pressure evictions have been
// recorded against key — observability for tests and stats.
func (h *hybrid) PressureEvents(key string) int {
	if st := h.keys[key]; st != nil {
		return st.pressure
	}
	return 0
}
