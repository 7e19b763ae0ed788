package pagetable

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"seuss/internal/mem"
)

// MapFrame installs frame at page-aligned va with the given flags,
// taking a reference on the frame. An existing mapping is replaced (its
// frame reference dropped).
func (as *AddressSpace) MapFrame(va uint64, f mem.Frame, flags flags) error {
	if as.frozen {
		panic("pagetable: mutation of frozen address space")
	}
	if va%mem.PageSize != 0 {
		return errBadAddress
	}
	pt, err := as.walk(va, true)
	if err != nil {
		return err
	}
	i := index(va, 0)
	listed := pt.flags[i] & flagDirtyListed // a replaced mapping stays on the dirty list
	if old := pt.frames[i]; old != 0 {
		as.st.DecRef(old)
	} else {
		as.mapped++
	}
	as.st.IncRef(f)
	pt.frames[i] = f
	pt.flags[i] = (flags &^ flagDirtyListed) | flagPresent | listed
	return nil
}

// ResetFaults zeroes the fault counters and returns the previous values.
func (as *AddressSpace) ResetFaults() FaultStats {
	f := as.Faults
	as.Faults = FaultStats{}
	return f
}

// mustAlloc allocates a frame from a store whose budget is known to
// hold; it panics on exhaustion.
func mustAlloc(st *mem.Store) mem.Frame {
	f, err := st.Alloc()
	if err != nil {
		panic(err)
	}
	return f
}
