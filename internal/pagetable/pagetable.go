// Package pagetable implements x86-64-style 4-level page tables over
// simulated physical frames.
//
// SEUSS captures snapshots and deploys unikernel contexts by direct
// manipulation of hardware page tables (§6): deployment is a shallow
// copy of a snapshot's page-table structure, writes are tracked with
// dirty bits, and faults are resolved by allocating a new page, cloning
// a page from the backing snapshot stack, or installing a read-only
// mapping into the stack. This package reproduces those operations
// bit-for-bit in simulation:
//
//   - A virtual address space is a radix tree of 512-entry nodes
//     (PML4 → PDPT → PD → PT) mapping 48-bit canonical addresses.
//   - Interior nodes are reference counted and shared copy-on-write
//     between address spaces: Clone copies only the root, so deploying
//     a UC from a 100 MB snapshot touches one node.
//   - Leaf entries carry Present/Writable/Dirty/Accessed bits plus a
//     software CoW bit; stores to CoW pages clone the frame, stores to
//     unmapped pages allocate demand-zero frames, and every store sets
//     the dirty bit and lands on the address space's dirty list — the
//     exact state snapshot capture consumes.
//
// The structures themselves are recycled: page-table nodes and address
// space shells released by Release/privatize return to a per-lineage
// free pool (created by New, inherited by every Clone), and the dirty
// list keeps its storage across ClearDirty cycles. Combined with the
// frame pool in package mem, a deploy→fault→capture cycle is
// allocation-free in steady state. Lineages are shard-local
// (shared-nothing), so the pools need no locking.
package pagetable

import (
	"errors"
	"fmt"
	"sort"

	"seuss/internal/mem"
)

// Flags are per-leaf-entry permission and status bits.
type Flags uint8

const (
	// FlagPresent marks the entry as mapped.
	FlagPresent Flags = 1 << iota
	// FlagWritable allows stores without a fault.
	FlagWritable
	// FlagUser allows ring-3 (UC) access; all UC mappings carry it.
	FlagUser
	// FlagAccessed is set by any load or store (hardware A bit).
	FlagAccessed
	// FlagDirty is set by any store (hardware D bit).
	FlagDirty
	// FlagCoW is the software copy-on-write bit: the entry references a
	// frame owned by a snapshot; the first store clones it.
	FlagCoW

	// flagDirtyListed is a software-only bit recording that the page's
	// VA is on the space's dirty list — the invariant that lets the
	// list be an append-only slice (reused across captures) instead of
	// a map rebuilt per cycle, with no duplicate entries.
	flagDirtyListed Flags = 1 << 7
)

const (
	levels     = 4
	entriesPer = 512
	indexBits  = 9
	indexMask  = entriesPer - 1
	// MaxVirtual is one past the highest mappable virtual address
	// (48-bit canonical lower half).
	MaxVirtual = uint64(1) << 48
	// spanMask covers the bytes mapped by one PT-level node (2 MB).
	spanMask = uint64(entriesPer*mem.PageSize - 1)
)

const (
	// maxPooledNodes bounds the per-lineage node free list (8192 nodes
	// ≈ 100 MB of mapped-address capacity; beyond that, let the GC
	// have them).
	maxPooledNodes = 8192
	// maxPooledSpaces bounds recycled address-space shells.
	maxPooledSpaces = 512
)

// ErrBadAddress is returned for virtual addresses outside the canonical
// range or not page-aligned where alignment is required.
var ErrBadAddress = errors.New("pagetable: bad virtual address")

// ErrNotMapped is returned when an operation requires an existing
// mapping.
var ErrNotMapped = errors.New("pagetable: address not mapped")

// index extracts the radix index for the given level (3 = PML4 … 0 = PT).
func index(va uint64, level int) int {
	return int((va >> (mem.PageShift + indexBits*level)) & indexMask)
}

// PageBase returns va rounded down to its page base.
func PageBase(va uint64) uint64 { return va &^ uint64(mem.PageSize-1) }

type entry struct {
	child *node      // interior levels
	frame *mem.Frame // leaf level
	flags Flags
}

type node struct {
	level   int
	refs    int32
	frame   *mem.Frame // accounting: the node itself occupies one frame
	entries [entriesPer]entry
}

// structPool recycles page-table nodes and address-space shells within
// one lineage (a root space plus every space Cloned from it,
// transitively). Single-goroutine by the shard ownership contract.
type structPool struct {
	nodes  []*node
	spaces []*AddressSpace
}

func (p *structPool) putNode(n *node) {
	if p == nil || len(p.nodes) >= maxPooledNodes {
		return
	}
	p.nodes = append(p.nodes, n)
}

func (p *structPool) getSpace() *AddressSpace {
	if p == nil || len(p.spaces) == 0 {
		return &AddressSpace{}
	}
	n := len(p.spaces)
	as := p.spaces[n-1]
	p.spaces[n-1] = nil
	p.spaces = p.spaces[:n-1]
	return as
}

// FaultStats counts faults resolved since the address space was created
// or stats were reset. The paper's Table 1 reports "pages copied" per
// invocation path; CoW+DemandZero is that number.
type FaultStats struct {
	DemandZero  int
	CoW         int
	TableClones int // interior nodes privatized by CoW-on-write paths
	// Prefetched counts pages resolved by PrefetchWritable — the
	// working-set bulk-map path. Deliberately NOT part of Copied():
	// the libos bills Copied() deltas at the per-fault rate, while
	// prefetched pages are charged once, in bulk, at the far cheaper
	// batched-walk rate (costs.WSPrefetchPerPage).
	Prefetched int
}

// Copied returns the number of private pages created by faults.
func (f FaultStats) Copied() int { return f.DemandZero + f.CoW }

// AddressSpace is one virtual address space: a UC's, or the immutable
// space held by a snapshot.
type AddressSpace struct {
	st    *mem.Store
	root  *node
	dirty []uint64 // page-base VAs written since last ClearDirty; dedup via flagDirtyListed
	// Faults accumulates fault-resolution counts; see FaultStats.
	Faults FaultStats
	mapped int // present leaf entries reachable (maintained incrementally)
	frozen bool
	pool   *structPool
	// One-entry software TLB for the write-fault path: the PT node that
	// resolved the last faultForWrite. A burst of faults within one
	// 2 MB span walks (and privatizes) the node once, then hits here.
	// Invalidated by Clone — the source's nodes become shared and the
	// next write must re-privatize — and by Release.
	cacheBase uint64
	cachePT   *node
	cacheOK   bool
}

// New returns an empty address space backed by st. The space owns a
// fresh structure pool, inherited by every space cloned from it.
func New(st *mem.Store) (*AddressSpace, error) {
	pool := &structPool{}
	root, err := newNode(st, pool, levels-1)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{st: st, root: root, pool: pool}, nil
}

func newNode(st *mem.Store, pool *structPool, level int) (*node, error) {
	f, err := st.Alloc()
	if err != nil {
		return nil, err
	}
	if pool != nil {
		if n := len(pool.nodes); n > 0 {
			nd := pool.nodes[n-1]
			pool.nodes[n-1] = nil
			pool.nodes = pool.nodes[:n-1]
			nd.level, nd.refs, nd.frame = level, 1, f
			return nd, nil
		}
	}
	return &node{level: level, refs: 1, frame: f}, nil
}

// Backing returns the physical memory store behind this space.
func (as *AddressSpace) Backing() *mem.Store { return as.st }

// Freeze marks the space immutable: further stores panic. Snapshots
// freeze their spaces; sharing is then always safe.
func (as *AddressSpace) Freeze() { as.frozen = true }

// Frozen reports whether the space is immutable.
func (as *AddressSpace) Frozen() bool { return as.frozen }

// MappedPages returns the number of present leaf mappings.
func (as *AddressSpace) MappedPages() int { return as.mapped }

// Clone returns a new address space sharing this one's entire tree:
// only the root node is copied; children are reference counted. This is
// the paper's "shallow copy of snapshot page table structure" — the
// cost of deploying a UC is independent of the snapshot's size.
//
// The source's leaf entries are inherited as-is, so the source must
// have been downgraded to read-only CoW (SetCoWAll) and frozen first;
// the snapshot layer enforces this. Cloning a space with writable
// entries would alias writable frames between spaces.
func (as *AddressSpace) Clone() (*AddressSpace, error) {
	root, err := newNode(as.st, as.pool, levels-1)
	if err != nil {
		return nil, err
	}
	for i := range as.root.entries {
		e := as.root.entries[i]
		if e.child != nil {
			e.child.refs++
		}
		root.entries[i] = e
	}
	// Our previously-private path nodes are now reachable from the
	// clone: the next write fault must re-walk and re-privatize rather
	// than scribble into a node the clone shares.
	as.cacheOK, as.cachePT = false, nil
	cp := as.pool.getSpace()
	*cp = AddressSpace{
		st:     as.st,
		root:   root,
		dirty:  cp.dirty[:0], // keep recycled storage
		mapped: as.mapped,
		pool:   as.pool,
	}
	return cp, nil
}

// privatize returns a private copy of n (refs==1), cloning it if shared.
// Child references are adjusted; the caller must install the result in
// the parent entry.
func (as *AddressSpace) privatize(n *node) (*node, error) {
	if n.refs == 1 {
		return n, nil
	}
	cp, err := newNode(as.st, as.pool, n.level)
	if err != nil {
		return nil, err
	}
	for i := range n.entries {
		e := n.entries[i]
		if e.child != nil {
			e.child.refs++
		}
		if e.frame != nil {
			as.st.IncRef(e.frame)
		}
		cp.entries[i] = e
	}
	releaseNode(as.st, as.pool, n)
	as.Faults.TableClones++
	return cp, nil
}

// releaseNode drops one reference; at zero it releases children and the
// node's accounting frame and recycles the node into the pool.
func releaseNode(st *mem.Store, pool *structPool, n *node) {
	n.refs--
	if n.refs > 0 {
		return
	}
	for i := range n.entries {
		e := &n.entries[i]
		if e.child != nil {
			releaseNode(st, pool, e.child)
		}
		if e.frame != nil {
			st.DecRef(e.frame)
		}
	}
	st.DecRef(n.frame)
	n.frame = nil
	n.entries = [entriesPer]entry{}
	pool.putNode(n)
}

// Release frees the address space: every shared node and frame loses one
// reference, and the shell itself is recycled into the lineage pool.
// The space must not be used afterwards.
func (as *AddressSpace) Release() {
	if as.root == nil {
		return
	}
	releaseNode(as.st, as.pool, as.root)
	as.root = nil
	as.cacheOK, as.cachePT = false, nil
	if pool := as.pool; pool != nil && len(pool.spaces) < maxPooledSpaces {
		dirty := as.dirty[:0]
		*as = AddressSpace{dirty: dirty}
		pool.spaces = append(pool.spaces, as)
	}
}

// walk descends to the leaf node containing va. If build is true,
// missing interior nodes are created and shared nodes on the path are
// privatized (CoW of the table structure itself). Returns the PT-level
// node, or nil if absent and !build.
func (as *AddressSpace) walk(va uint64, build bool) (*node, error) {
	if va >= MaxVirtual {
		return nil, ErrBadAddress
	}
	n := as.root
	for level := levels - 1; level > 0; level-- {
		idx := index(va, level)
		e := &n.entries[idx]
		if e.child == nil {
			if !build {
				return nil, nil
			}
			child, err := newNode(as.st, as.pool, level-1)
			if err != nil {
				return nil, err
			}
			e.child = child
		} else if build && e.child.refs > 1 {
			cp, err := as.privatize(e.child)
			if err != nil {
				return nil, err
			}
			e.child = cp
		}
		n = e.child
	}
	return n, nil
}

// MapFrame installs frame at page-aligned va with the given flags,
// taking a reference on the frame. An existing mapping is replaced (its
// frame reference dropped).
func (as *AddressSpace) MapFrame(va uint64, f *mem.Frame, flags Flags) error {
	if as.frozen {
		panic("pagetable: mutation of frozen address space")
	}
	if va%mem.PageSize != 0 {
		return ErrBadAddress
	}
	pt, err := as.walk(va, true)
	if err != nil {
		return err
	}
	e := &pt.entries[index(va, 0)]
	listed := e.flags & flagDirtyListed // a replaced mapping stays on the dirty list
	if e.frame != nil {
		as.st.DecRef(e.frame)
	} else {
		as.mapped++
	}
	as.st.IncRef(f)
	e.frame = f
	e.flags = (flags &^ flagDirtyListed) | FlagPresent | listed
	return nil
}

// Unmap removes the mapping at va if present, dropping the frame
// reference.
func (as *AddressSpace) Unmap(va uint64) error {
	if as.frozen {
		panic("pagetable: mutation of frozen address space")
	}
	if va%mem.PageSize != 0 {
		return ErrBadAddress
	}
	pt, err := as.walk(va, true)
	if err != nil {
		return err
	}
	if pt == nil {
		return ErrNotMapped
	}
	e := &pt.entries[index(va, 0)]
	if e.frame == nil {
		return ErrNotMapped
	}
	if e.flags&flagDirtyListed != 0 {
		for i, d := range as.dirty {
			if d == va {
				as.dirty[i] = as.dirty[len(as.dirty)-1]
				as.dirty = as.dirty[:len(as.dirty)-1]
				break
			}
		}
	}
	as.st.DecRef(e.frame)
	*e = entry{}
	as.mapped--
	return nil
}

// Translate returns the frame and flags mapped at va's page, or ok=false.
// It does not set the accessed bit (use Load/Store for access
// semantics). The software dirty-list bookkeeping bit is masked out.
func (as *AddressSpace) Translate(va uint64) (*mem.Frame, Flags, bool) {
	pt, err := as.walk(PageBase(va), false)
	if err != nil || pt == nil {
		return nil, 0, false
	}
	e := pt.entries[index(va, 0)]
	if e.frame == nil {
		return nil, 0, false
	}
	return e.frame, e.flags &^ flagDirtyListed, true
}

// Load copies memory at va into dst, crossing page boundaries as
// needed. Unmapped pages read as zeros (the shared zero page). Load
// does not set accessed bits: leaf nodes may be shared with frozen
// snapshots, and nothing in the capture path consumes the A bit.
func (as *AddressSpace) Load(va uint64, dst []byte) error {
	for len(dst) > 0 {
		if va >= MaxVirtual {
			return ErrBadAddress
		}
		off := int(va % mem.PageSize)
		n := mem.PageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		pt, err := as.walk(PageBase(va), false)
		if err != nil {
			return err
		}
		if pt == nil {
			zero(dst[:n])
		} else {
			e := &pt.entries[index(va, 0)]
			if e.frame == nil {
				zero(dst[:n])
			} else {
				e.frame.Read(off, dst[:n])
			}
		}
		dst = dst[n:]
		va += uint64(n)
	}
	return nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Store writes data at va, crossing page boundaries, resolving faults
// exactly as the SEUSS kernel handler does: demand-zero for unmapped
// pages, frame clones for CoW pages. Dirty bits are set and the dirty
// list updated.
func (as *AddressSpace) Store(va uint64, data []byte) error {
	for len(data) > 0 {
		if va >= MaxVirtual {
			return ErrBadAddress
		}
		off := int(va % mem.PageSize)
		n := mem.PageSize - off
		if n > len(data) {
			n = len(data)
		}
		f, err := as.faultForWrite(PageBase(va))
		if err != nil {
			return err
		}
		f.Write(off, data[:n])
		data = data[n:]
		va += uint64(n)
	}
	return nil
}

// Touch dirties the page containing va without materializing content:
// the simulation's fast path for workloads where only footprint, not
// byte fidelity, matters. Fault semantics are identical to Store.
func (as *AddressSpace) Touch(va uint64) error {
	_, err := as.faultForWrite(PageBase(va))
	return err
}

// TouchRange dirties every page in [va, va+size).
func (as *AddressSpace) TouchRange(va uint64, size uint64) error {
	for p := PageBase(va); p < va+size; p += mem.PageSize {
		if err := as.Touch(p); err != nil {
			return err
		}
	}
	return nil
}

// faultForWrite makes the page at page-base va privately writable,
// resolving demand-zero and CoW faults, and returns its frame.
func (as *AddressSpace) faultForWrite(va uint64) (*mem.Frame, error) {
	if as.frozen {
		panic("pagetable: store to frozen address space")
	}
	var pt *node
	if as.cacheOK && va&^spanMask == as.cacheBase {
		pt = as.cachePT
	} else {
		var err error
		pt, err = as.walk(va, true)
		if err != nil {
			return nil, err
		}
		as.cacheBase, as.cachePT, as.cacheOK = va&^spanMask, pt, true
	}
	e := &pt.entries[index(va, 0)]
	switch {
	case e.frame == nil:
		// Demand-zero fault: allocate a fresh frame.
		f, err := as.st.Alloc()
		if err != nil {
			return nil, err
		}
		e.frame = f
		e.flags = FlagPresent | FlagWritable | FlagUser
		as.mapped++
		as.Faults.DemandZero++
	case e.flags&FlagWritable == 0 && e.flags&FlagCoW != 0:
		// CoW fault: clone the snapshot's frame; all writes land on a
		// page dedicated exclusively to this UC (§5).
		f, err := as.st.Clone(e.frame)
		if err != nil {
			return nil, err
		}
		as.st.DecRef(e.frame)
		e.frame = f
		e.flags = (e.flags &^ FlagCoW) | FlagWritable
		as.Faults.CoW++
	case e.flags&FlagWritable == 0:
		return nil, fmt.Errorf("pagetable: write protection fault at %#x", va)
	}
	if e.flags&flagDirtyListed == 0 {
		as.dirty = append(as.dirty, va)
	}
	e.flags |= FlagDirty | FlagAccessed | flagDirtyListed
	return e.frame, nil
}

// SparseInstaller streams a snapshot diff's pages into the space, one
// Page call at a time, so a caller decoding pages from a wire image
// fuses decode and install into a single pass (snapshot.GraftWire).
//
// Each installed page gets a freshly allocated private frame mapped
// read-only CoW — exactly the entry Capture's SetCoWAll + Clone would
// have produced for a store at that address, so a snapshot built over
// the result re-exports byte-identically. Nothing faults, nothing is
// dirty-listed, and shared path nodes are privatized once per 2 MB span
// rather than once per page.
//
// Pages whose installed mapping would be indistinguishable from the
// fault path's default are skipped and collected in Lazy instead. A
// page qualifies when it has no content and its current mapping already
// reads as zeros — either no entry at all (a later touch demand-zero
// faults to a fresh zero page) or an inherited frame that was never
// materialized (reads as zeros now; a write CoW-clones another zero
// page). Installing such a page buys nothing the fault path doesn't
// already guarantee, and a typical diff is almost entirely such pages.
// A snapshot that skipped pages must remember them so re-export
// reproduces the original wire bytes.
//
// Pages must arrive in ascending order for Lazy() to be ascending.
type SparseInstaller struct {
	as       *AddressSpace
	pt       *node
	spanBase uint64
	spanOK   bool
	built    bool // whether pt came from a build walk (private, installable)
	lazy     []uint64
}

// NewSparseInstaller prepares a streaming installer expecting about
// expect pages (a capacity hint for the lazy list).
func (as *AddressSpace) NewSparseInstaller(expect int) *SparseInstaller {
	if as.frozen {
		panic("pagetable: SparseInstaller on frozen address space")
	}
	return &SparseInstaller{as: as, lazy: make([]uint64, 0, expect)}
}

// Page installs one diff page (content nil for a zero page). Zero pages
// whose current mapping already reads as zeros are skipped and recorded
// in Lazy instead.
func (si *SparseInstaller) Page(va uint64, content []byte) error {
	as := si.as
	if va >= MaxVirtual || va%mem.PageSize != 0 {
		return ErrBadAddress
	}
	if !si.spanOK || va&^spanMask != si.spanBase {
		pt, err := as.walk(va, false)
		if err != nil {
			return err
		}
		si.pt, si.spanBase, si.spanOK, si.built = pt, va&^spanMask, true, false
	}
	if content == nil {
		if si.pt == nil {
			si.lazy = append(si.lazy, va)
			return nil
		}
		if e := &si.pt.entries[index(va, 0)]; e.frame == nil || !e.frame.Materialized() {
			si.lazy = append(si.lazy, va)
			return nil
		}
	}
	if !si.built {
		pt, err := as.walk(va, true)
		if err != nil {
			return err
		}
		si.pt, si.built = pt, true
	}
	f, err := as.st.Alloc()
	if err != nil {
		return err
	}
	if content != nil {
		f.Write(0, content)
	}
	e := &si.pt.entries[index(va, 0)]
	if e.frame != nil {
		as.st.DecRef(e.frame)
	} else {
		as.mapped++
	}
	e.frame = f
	e.flags = FlagPresent | FlagUser | FlagCoW | FlagAccessed
	return nil
}

// Lazy returns the skipped page VAs, ascending when pages arrived
// ascending. The slice is the caller's to keep.
func (si *SparseInstaller) Lazy() []uint64 { return si.lazy }

// PrefetchWritable bulk-resolves the given page-base VAs for writing —
// the working-set replay path (DESIGN.md §13). Each page is made
// privately writable exactly as faultForWrite would (demand-zero
// allocation for absent pages, a frame clone for CoW pages), but the
// table walk and path privatization happen once per 2 MB span instead
// of once per fault, and the resolutions count into Faults.Prefetched
// rather than DemandZero/CoW — the caller charges them in bulk at the
// batched rate, not at the per-fault rate.
//
// Prefetched pages are marked dirty and dirty-listed: the record was
// harvested from a dirty set, so the pages are expected to be written,
// and keeping them observable in DirtyPages is what makes the next
// harvest the union the drift-merge rule needs. Already-writable pages
// are skipped. Returns the number of pages resolved.
func (as *AddressSpace) PrefetchWritable(vas []uint64) (int, error) {
	if as.frozen {
		panic("pagetable: PrefetchWritable on frozen address space")
	}
	var pt *node
	spanBase, spanOK := uint64(0), false
	resolved := 0
	for _, va := range vas {
		if va >= MaxVirtual || va%mem.PageSize != 0 {
			return resolved, ErrBadAddress
		}
		if !spanOK || va&^spanMask != spanBase {
			var err error
			pt, err = as.walk(va, true)
			if err != nil {
				return resolved, err
			}
			spanBase, spanOK = va&^spanMask, true
		}
		e := &pt.entries[index(va, 0)]
		switch {
		case e.frame == nil:
			f, err := as.st.Alloc()
			if err != nil {
				return resolved, err
			}
			e.frame = f
			e.flags = FlagPresent | FlagWritable | FlagUser
			as.mapped++
		case e.flags&FlagWritable == 0 && e.flags&FlagCoW != 0:
			f, err := as.st.Clone(e.frame)
			if err != nil {
				return resolved, err
			}
			as.st.DecRef(e.frame)
			e.frame = f
			e.flags = (e.flags &^ FlagCoW) | FlagWritable
		default:
			continue // already writable (or protected): nothing to prefetch
		}
		if e.flags&flagDirtyListed == 0 {
			as.dirty = append(as.dirty, va)
		}
		e.flags |= FlagDirty | FlagAccessed | flagDirtyListed
		as.Faults.Prefetched++
		resolved++
	}
	if spanOK {
		// Seed the one-entry fault cache with the last span: residual
		// on-demand faults often land near the tail of the working set.
		as.cacheBase, as.cachePT, as.cacheOK = spanBase, pt, true
	}
	return resolved, nil
}

// DirtyPages returns the sorted page-base addresses written since
// creation or the last ClearDirty — the set snapshot capture clones.
func (as *AddressSpace) DirtyPages() []uint64 {
	out := make([]uint64, len(as.dirty))
	copy(out, as.dirty)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirtyCount returns the number of dirty pages without copying the list.
func (as *AddressSpace) DirtyCount() int { return len(as.dirty) }

// ClearDirty resets dirty tracking (hardware D bits and the software
// list). Called after a snapshot capture. The list's storage is kept
// for the next cycle.
func (as *AddressSpace) ClearDirty() {
	for _, va := range as.dirty {
		if pt, _ := as.walk(va, false); pt != nil {
			pt.entries[index(va, 0)].flags &^= FlagDirty | flagDirtyListed
		}
	}
	as.dirty = as.dirty[:0]
}

// SetCoWAll downgrades every writable mapping to read-only CoW. Clone
// already produces CoW views; this is used when freezing a live space
// into a snapshot in place.
func (as *AddressSpace) SetCoWAll() {
	var walkNode func(n *node)
	walkNode = func(n *node) {
		for i := range n.entries {
			e := &n.entries[i]
			if e.child != nil {
				walkNode(e.child)
			}
			if e.frame != nil && e.flags&FlagWritable != 0 {
				e.flags = (e.flags &^ FlagWritable) | FlagCoW
			}
		}
	}
	walkNode(as.root)
}

// ResetFaults zeroes the fault counters and returns the previous values.
func (as *AddressSpace) ResetFaults() FaultStats {
	f := as.Faults
	as.Faults = FaultStats{}
	return f
}

// PresentPages returns the sorted page-base addresses of every present
// leaf mapping (the snapshot codec walks these to compute diffs).
func (as *AddressSpace) PresentPages() []uint64 {
	var out []uint64
	var walkNode func(n *node, prefix uint64)
	walkNode = func(n *node, prefix uint64) {
		shift := uint(mem.PageShift + indexBits*n.level)
		for i := range n.entries {
			e := &n.entries[i]
			va := prefix | uint64(i)<<shift
			if n.level == 0 {
				if e.frame != nil {
					out = append(out, va)
				}
				continue
			}
			if e.child != nil {
				walkNode(e.child, va)
			}
		}
	}
	walkNode(as.root, 0)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TableNodes returns the number of page-table nodes reachable from this
// space, and how many of those are private — reachable only through
// this space (every node on the path from the root has a single
// reference). Shared nodes are counted once.
func (as *AddressSpace) TableNodes() (total, private int) {
	seen := map[*node]bool{}
	var walkNode func(n *node, exclusive bool)
	walkNode = func(n *node, exclusive bool) {
		if seen[n] {
			return
		}
		seen[n] = true
		total++
		exclusive = exclusive && n.refs == 1
		if exclusive {
			private++
		}
		for i := range n.entries {
			if c := n.entries[i].child; c != nil {
				walkNode(c, exclusive)
			}
		}
	}
	walkNode(as.root, true)
	return total, private
}

// FootprintBytes returns the private memory cost of this space: frames
// created by its faults (pages copied) plus its private table nodes.
// This is the marginal cost of one more UC deployed from a snapshot —
// the quantity that determines cache density in Table 3.
func (as *AddressSpace) FootprintBytes() int64 {
	_, private := as.TableNodes()
	return int64(as.Faults.Copied()+private) * mem.PageSize
}
