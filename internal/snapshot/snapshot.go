// Package snapshot implements SEUSS snapshots and snapshot stacks (§3, §6).
//
// A snapshot is an immutable data object expressing the instantaneous
// execution state of a unikernel context: its address space and
// registers. Snapshots act as templates — an arbitrary number of UCs can
// be launched from one snapshot concurrently and over time.
//
// Snapshot stacks express lineage: each snapshot is a page-level diff on
// its base. Capture takes the complete page-table structure but shares
// every page with the captured UC (and, transitively, with the UC's own
// base snapshot), so a function-specific snapshot costs only its dirty
// pages plus a handful of table nodes. The mechanism:
//
//  1. The source space's writable entries are downgraded to read-only
//     CoW (SetCoWAll) — writes the source issues afterwards fault and
//     clone, exactly the "transparent continuation" of §6.
//  2. The snapshot takes a shallow clone of the page-table structure
//     and freezes it.
//  3. The source's dirty list — the pages modified since it was
//     deployed — is recorded as the snapshot's diff and then cleared.
//
// Deletion safety follows §6: a snapshot can only be deleted when no
// other snapshots or UCs depend on it.
package snapshot

import (
	"errors"
	"fmt"

	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

// Registers is the captured CPU register state of a UC. Deployment
// overwrites the breakpoint exception frame with these values, resuming
// execution at the instruction where the snapshot was triggered.
type Registers struct {
	PC    uint64
	SP    uint64
	Flags uint64
	GPR   [14]uint64
}

// ErrInUse is returned by Delete while UCs or descendant snapshots
// still depend on the snapshot.
var ErrInUse = errors.New("snapshot: in use by UCs or descendant snapshots")

// ErrDeleted is returned when deploying from a deleted snapshot.
var ErrDeleted = errors.New("snapshot: deleted")

// Snapshot is an immutable UC image. Create one with Capture; deploy
// new address spaces from it with Deploy.
type Snapshot struct {
	name      string
	base      *Snapshot
	space     *pagetable.AddressSpace
	regs      Registers
	diffPages int
	children  int
	activeUCs int
	deploys   int64
	deleted   bool
	payload   interface{}
	// lazyZero lists diff page VAs (ascending) that GraftWire left
	// uninstalled because the fault path rehydrates them identically
	// (no content, and the base reads as zeros there). They are still
	// part of the diff: export merges them back as zero pages so the
	// re-encoded wire bytes — and therefore the content digest — match
	// the original exactly.
	lazyZero []uint64
	// kits caches retired deploy kits — opaque bundles of guest-side
	// structures (UC shell, unikernel, interpreter) whose state still
	// equals this snapshot's payload, parked here by the UC layer at
	// destroy time so the next deploy can skip guest rehydration
	// allocations entirely. The snapshot layer never looks inside.
	kits []interface{}
}

// maxDeployKits bounds the per-snapshot kit cache; beyond it, retired
// kits are dropped for the GC.
const maxDeployKits = 64

// CacheDeployKit parks a retired deploy kit for reuse by a future
// Deploy from this snapshot. Returns false (kit not retained) when the
// snapshot is deleted or the cache is full.
func (s *Snapshot) CacheDeployKit(kit interface{}) bool {
	if s == nil || s.deleted || len(s.kits) >= maxDeployKits {
		return false
	}
	s.kits = append(s.kits, kit)
	return true
}

// TakeDeployKit removes and returns a cached deploy kit, or nil.
func (s *Snapshot) TakeDeployKit() interface{} {
	n := len(s.kits)
	if n == 0 {
		return nil
	}
	kit := s.kits[n-1]
	s.kits[n-1] = nil
	s.kits = s.kits[:n-1]
	return kit
}

// CachedDeployKits returns the number of parked kits (stats/tests).
func (s *Snapshot) CachedDeployKits() int { return len(s.kits) }

// SetPayload attaches opaque guest metadata to the snapshot. On real
// hardware this state lives inside the captured memory image; the
// simulation carries it alongside so deployment can rehydrate the
// Go-level guest objects. Payload is set once, at capture time.
func (s *Snapshot) SetPayload(p interface{}) { s.payload = p }

// Payload returns the guest metadata attached at capture.
func (s *Snapshot) Payload() interface{} { return s.payload }

// Capture freezes the current state of src into a new snapshot layered
// on base (nil for a root snapshot, e.g. the per-interpreter runtime
// snapshot). src continues to be usable by its UC: its pages become
// read-only CoW and later writes transparently clone.
//
// The returned snapshot's diff is exactly src's dirty set at the moment
// of capture; src's dirty tracking is reset.
func Capture(name string, base *Snapshot, src *pagetable.AddressSpace, regs Registers) (*Snapshot, error) {
	if src.Frozen() {
		return nil, fmt.Errorf("snapshot: capturing %q from a frozen space", name)
	}
	diff := src.DirtyCount()
	src.SetCoWAll()
	space, err := src.Clone()
	if err != nil {
		return nil, fmt.Errorf("snapshot: capture %q: %w", name, err)
	}
	space.Freeze()
	src.ClearDirty()
	s := &Snapshot{
		name:      name,
		base:      base,
		space:     space,
		regs:      regs,
		diffPages: diff,
	}
	if base != nil {
		base.children++
	}
	return s, nil
}

// Name returns the snapshot's identifying name (e.g. "nodejs-runtime",
// or a function key for function-specific snapshots).
func (s *Snapshot) Name() string { return s.name }

// Base returns the snapshot this one diffs against, or nil for a root
// snapshot.
func (s *Snapshot) Base() *Snapshot { return s.base }

// Registers returns the captured register state.
func (s *Snapshot) Registers() Registers { return s.regs }

// DiffPages returns the number of pages this snapshot captured beyond
// its base — the page-level diff size of §3.
func (s *Snapshot) DiffPages() int { return s.diffPages }

// DiffBytes returns the diff size in bytes. For a root snapshot this is
// the full image size (every page the UC wrote since boot); for stacked
// snapshots it is the increment Table 1 reports (e.g. 2 MB for a NOP
// function over the 114.5 MB Node.js runtime snapshot).
func (s *Snapshot) DiffBytes() int64 { return int64(s.diffPages) * mem.PageSize }

// StackDepth returns the number of snapshots in this snapshot's stack,
// including itself.
func (s *Snapshot) StackDepth() int {
	d := 0
	for cur := s; cur != nil; cur = cur.base {
		d++
	}
	return d
}

// TotalBytes returns the cumulative unique bytes of the whole stack:
// the sum of every ancestor's diff. Deploying a UC makes all of it
// reachable while costing none of it.
func (s *Snapshot) TotalBytes() int64 {
	var total int64
	for cur := s; cur != nil; cur = cur.base {
		total += cur.DiffBytes()
	}
	return total
}

// Children returns the number of snapshots layered directly on this one.
func (s *Snapshot) Children() int { return s.children }

// ActiveUCs returns the number of address spaces deployed from this
// snapshot that have not yet been released.
func (s *Snapshot) ActiveUCs() int { return s.activeUCs }

// Deploys returns the lifetime count of deployments.
func (s *Snapshot) Deploys() int64 { return s.deploys }

// Deleted reports whether Delete has succeeded on this snapshot.
func (s *Snapshot) Deleted() bool { return s.deleted }

// Deploy creates a new address space from the snapshot — a shallow copy
// of the page-table structure whose cost is independent of image size —
// and returns it with the captured registers. The caller owns the space
// and must pair this with ReleaseUC when the UC is destroyed or itself
// captured away.
func (s *Snapshot) Deploy() (*pagetable.AddressSpace, Registers, error) {
	if s.deleted {
		return nil, Registers{}, ErrDeleted
	}
	space, err := s.space.Clone()
	if err != nil {
		return nil, Registers{}, fmt.Errorf("snapshot: deploy from %q: %w", s.name, err)
	}
	s.activeUCs++
	s.deploys++
	return space, s.regs, nil
}

// ReleaseUC records that an address space obtained from Deploy has been
// released.
func (s *Snapshot) ReleaseUC() {
	if s.activeUCs <= 0 {
		panic("snapshot: ReleaseUC without Deploy")
	}
	s.activeUCs--
}

// Delete releases the snapshot's memory. It fails with ErrInUse while
// any UC deployed from it is alive or any descendant snapshot exists —
// the prototype's rule of only deleting function-specific snapshots
// with no active dependents.
func (s *Snapshot) Delete() error {
	if s.deleted {
		return nil
	}
	if s.children > 0 || s.activeUCs > 0 {
		return ErrInUse
	}
	s.space.Release()
	s.space = nil
	s.kits = nil
	s.deleted = true
	if s.base != nil {
		s.base.children--
		s.base = nil
	}
	return nil
}

// FootprintPages returns the number of private page-table pages plus
// diff pages this snapshot holds — its true marginal memory cost.
func (s *Snapshot) FootprintPages() int {
	if s.deleted {
		return 0
	}
	_, private := s.space.TableNodes()
	return s.diffPages + private
}
