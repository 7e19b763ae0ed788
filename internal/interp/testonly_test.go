package interp

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"fmt"
	"seuss/internal/libos"
)

// GuestAllocs returns the total guest-heap bytes charged by interpreter
// activity (diagnostics).
func (r *Runtime) GuestAllocs() int64 { return r.allocs }

// Profile returns the runtime's interpreter profile.
func (r *Runtime) Profile() Profile { return r.prof }

// NewRuntime wires a fresh Node.js-profile interpreter to a booted
// unikernel. The interpreter image itself is not yet loaded; call
// InitInterpreter (the once-per-interpreter system initialization) or
// RestoreFromState (the deploy path).
func NewRuntime(uk *libos.Unikernel) *Runtime {
	return NewRuntimeWithProfile(uk, NodeJS)
}

// Profiles returns the registered runtime names.
func Profiles() []string {
	out := make([]string, 0, len(profiles))
	for name := range profiles {
		out = append(out, name)
	}
	return out
}

// Requests returns the driver's in-guest request counter (read through
// the interpreter, proving the driver state is real).
func (r *Runtime) Requests() (int, error) {
	r.pristine = false
	v, err := r.in.CallGlobal("__status", nil)
	if err != nil {
		return 0, err
	}
	s, _ := v.(string)
	var n int
	_, err = fmt.Sscanf(s, `{"status":"listening","requests":%d}`, &n)
	if err != nil {
		return 0, fmt.Errorf("interp: bad status %q: %v", s, err)
	}
	return n, nil
}
