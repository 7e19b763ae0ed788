package uc

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import "seuss/internal/snapshot"

// Registers returns the UC's current (simulated) register file.
func (u *UC) Registers() snapshot.Registers { return u.regs }

// State returns the lifecycle state.
func (u *UC) State() state { return u.state }

// From returns the snapshot this UC was deployed from (nil for fresh
// boots).
func (u *UC) From() *snapshot.Snapshot { return u.from }
