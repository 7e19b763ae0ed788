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
//   - A virtual address space is a radix tree of 512-slot nodes
//     (PML4 → PDPT → PD → PT) mapping 48-bit canonical addresses.
//   - Nodes are reference counted and shared copy-on-write between
//     address spaces: Clone copies only the root, so deploying a UC
//     from a 100 MB snapshot touches one node.
//   - Leaf entries carry Present/Writable/Dirty/Accessed bits plus a
//     software CoW bit; stores to CoW pages clone the frame, stores to
//     unmapped pages allocate demand-zero frames, and every store sets
//     the dirty bit and lands on the address space's dirty list — the
//     exact state snapshot capture consumes.
//
// A node is charged one simulated frame whatever it holds, but on the
// host each kind is sized to what it maps, because a node.js function
// keeps about a dozen private ones alive for as long as it is cached.
// A PT (leaf) is nearly full — ~440 of 512 slots — so it is dense: 512
// frame numbers (mem.Frame is a uint32), 512 flag bytes and a header
// whose accounting frame is a number too. That is 2.5 KB with no pointer
// in it, which the collector never scans. The levels above are nearly
// empty — a root and a PDPT
// hold 2 children, a PD ~50 — so an interior node is sparse: a 512-bit
// occupancy bitmap and the children that exist, packed in index order.
// Slot i is occupied when bit i is set, and its child sits at the
// number of set bits below i (a popcount rank). Clone, privatize and
// release touch only those children.
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
	"math/bits"
	"slices"

	"seuss/internal/mem"
)

// flags are per-leaf-entry permission and status bits.
type flags uint8

const (
	// flagPresent marks the entry as mapped.
	flagPresent flags = 1 << iota
	// flagWritable allows stores without a fault.
	flagWritable
	// flagUser allows ring-3 (UC) access; all UC mappings carry it.
	flagUser
	// flagAccessed is set by any load or store (hardware A bit).
	flagAccessed
	// flagDirty is set by any store (hardware D bit).
	flagDirty
	// flagCoW is the software copy-on-write bit: the entry references a
	// frame owned by a snapshot; the first store clones it.
	flagCoW

	// flagDirtyListed is a software-only bit recording that the page's
	// VA is on the space's dirty list — the invariant that lets the
	// list be an append-only slice (reused across captures) instead of
	// a map rebuilt per cycle, with no duplicate entries.
	flagDirtyListed flags = 1 << 7
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
	// maxPooledNodes bounds each of the per-lineage node free lists
	// (8192 leaves ≈ 22 MB of host memory; beyond that, let the GC have
	// them).
	maxPooledNodes = 8192
	// maxPooledSpaces bounds recycled address-space shells.
	maxPooledSpaces = 512
)

// errBadAddress is returned for virtual addresses outside the canonical
// range or not page-aligned where alignment is required.
var errBadAddress = errors.New("pagetable: bad virtual address")

// errNotMapped is returned when an operation requires an existing
// mapping.
var errNotMapped = errors.New("pagetable: address not mapped")

// index extracts the radix index for the given level (3 = PML4 … 0 = PT).
func index(va uint64, level int) int {
	return int((va >> (mem.PageShift + indexBits*level)) & indexMask)
}

// PageBase returns va rounded down to its page base.
func PageBase(va uint64) uint64 { return va &^ uint64(mem.PageSize-1) }

// nodeHeader is what both node kinds carry: the count of parents that
// reference the node, and the simulated frame it is charged as.
type nodeHeader struct {
	frame mem.Frame
	refs  int32
}

func (h *nodeHeader) header() *nodeHeader { return h }

// tableNode is a child slot of an interior node: a *interior above the
// PD level, a *leaf (one PT) below it.
type tableNode interface{ header() *nodeHeader }

// leaf is a PT: one entry per page of a 2 MB span. flags[i] describes
// frames[i] and is zero while frames[i] is 0 (no frame).
type leaf struct {
	nodeHeader
	frames [entriesPer]mem.Frame
	flags  [entriesPer]flags
}

// inlineKids is how many children an interior node holds before kids
// outgrows the node's own allocation: a root or a PDPT (2 children
// under every runtime image) stays one Go object.
const inlineKids = 4

// interior is a PML4, PDPT or PD. Bit i of occ is set when slot i has a
// child; kids holds the children in slot order.
type interior struct {
	nodeHeader
	occ  [entriesPer / 64]uint64
	kids []tableNode
	few  [inlineKids]tableNode // kids' first backing array
}

// rank returns where slot idx's child sits in kids — or would be
// inserted — and whether the slot is occupied.
func (n *interior) rank(idx int) (int, bool) {
	w, bit := idx>>6, uint64(1)<<(idx&63)
	r := bits.OnesCount64(n.occ[w] & (bit - 1))
	for _, word := range n.occ[:w] {
		r += bits.OnesCount64(word)
	}
	return r, n.occ[w]&bit != 0
}

// insert places child in the empty slot idx, whose rank is r.
func (n *interior) insert(idx, r int, child tableNode) {
	n.occ[idx>>6] |= 1 << (idx & 63)
	n.kids = slices.Insert(n.kids, r, child)
}

// eachKid calls visit with every child and its slot index, ascending.
func (n *interior) eachKid(visit func(idx int, kid tableNode)) {
	r := 0
	for w, word := range n.occ {
		for ; word != 0; word &= word - 1 {
			visit(w<<6|bits.TrailingZeros64(word), n.kids[r])
			r++
		}
	}
}

// structPool recycles page-table nodes and address-space shells within
// one lineage (a root space plus every space Cloned from it,
// transitively). Single-goroutine by the shard ownership contract.
type structPool struct {
	leaves    []*leaf
	interiors []*interior
	spaces    []*AddressSpace
}

// pop takes the last entry off a free list, or returns nil.
func pop[T any](list *[]*T) *T {
	k := len(*list)
	if k == 0 {
		return nil
	}
	x := (*list)[k-1]
	(*list)[k-1] = nil
	*list = (*list)[:k-1]
	return x
}

func (p *structPool) getSpace() *AddressSpace {
	if as := pop(&p.spaces); as != nil {
		return as
	}
	return &AddressSpace{}
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
	root  *interior
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
	cache ptCursor
}

// ptCursor remembers the PT node of the last 2 MB span walked, so a run
// of addresses inside one span costs one table walk.
type ptCursor struct {
	base uint64
	pt   *leaf
	ok   bool
}

// at returns the PT node covering va (nil if absent and !build),
// walking only when va leaves the cursor's span.
func (c *ptCursor) at(as *AddressSpace, va uint64, build bool) (*leaf, error) {
	if c.ok && va&^spanMask == c.base {
		return c.pt, nil
	}
	pt, err := as.walk(va, build)
	if err != nil {
		return nil, err
	}
	*c = ptCursor{base: va &^ spanMask, pt: pt, ok: true}
	return pt, nil
}

// New returns an empty address space backed by st. The space owns a
// fresh structure pool, inherited by every space cloned from it.
func New(st *mem.Store) (*AddressSpace, error) {
	pool := &structPool{}
	root, err := newInterior(st, pool)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{st: st, root: root, pool: pool}, nil
}

// newInterior returns an empty interior node holding one reference,
// recycled from pool when it can be, and charges st one frame for it.
func newInterior(st *mem.Store, pool *structPool) (*interior, error) {
	f, err := st.Alloc()
	if err != nil {
		return nil, err
	}
	n := pop(&pool.interiors)
	if n == nil {
		n = &interior{}
		n.kids = n.few[:0]
	}
	n.frame, n.refs = f, 1
	return n, nil
}

// newLeaf is newInterior for a PT.
func newLeaf(st *mem.Store, pool *structPool) (*leaf, error) {
	f, err := st.Alloc()
	if err != nil {
		return nil, err
	}
	n := pop(&pool.leaves)
	if n == nil {
		n = &leaf{}
	}
	n.frame, n.refs = f, 1
	return n, nil
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
	root, err := newInterior(as.st, as.pool)
	if err != nil {
		return nil, err
	}
	shareKids(root, as.root)
	// Our previously-private path nodes are now reachable from the
	// clone: the next write fault must re-walk and re-privatize rather
	// than scribble into a node the clone shares.
	as.cache = ptCursor{}
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

// shareKids makes the empty node dst a second parent of src's children.
func shareKids(dst, src *interior) {
	dst.occ = src.occ
	dst.kids = append(dst.kids, src.kids...)
	for _, kid := range dst.kids {
		kid.header().refs++
	}
}

// privatize returns a private copy of n (refs==1), cloning it if shared.
// Child and frame references are adjusted; the caller must install the
// result in the parent's slot.
func (as *AddressSpace) privatize(n tableNode) (tableNode, error) {
	if n.header().refs == 1 {
		return n, nil
	}
	var cp tableNode
	switch n := n.(type) {
	case *interior:
		c, err := newInterior(as.st, as.pool)
		if err != nil {
			return nil, err
		}
		shareKids(c, n)
		cp = c
	case *leaf:
		c, err := newLeaf(as.st, as.pool)
		if err != nil {
			return nil, err
		}
		c.frames, c.flags = n.frames, n.flags
		for _, f := range c.frames {
			if f != 0 {
				as.st.IncRef(f)
			}
		}
		cp = c
	}
	releaseNode(as.st, as.pool, n)
	as.Faults.TableClones++
	return cp, nil
}

// releaseNode drops one reference; at zero it releases children, mapped
// frames and the node's accounting frame and recycles the node into the
// pool.
func releaseNode(st *mem.Store, pool *structPool, n tableNode) {
	h := n.header()
	h.refs--
	if h.refs > 0 {
		return
	}
	switch n := n.(type) {
	case *interior:
		for _, kid := range n.kids {
			releaseNode(st, pool, kid)
		}
		clear(n.kids)
		n.kids, n.occ = n.kids[:0], [entriesPer / 64]uint64{}
		if len(pool.interiors) < maxPooledNodes {
			pool.interiors = append(pool.interiors, n)
		}
	case *leaf:
		for _, f := range n.frames {
			if f != 0 {
				st.DecRef(f)
			}
		}
		n.frames, n.flags = [entriesPer]mem.Frame{}, [entriesPer]flags{}
		if len(pool.leaves) < maxPooledNodes {
			pool.leaves = append(pool.leaves, n)
		}
	}
	st.DecRef(h.frame)
	h.frame = 0
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
	as.cache = ptCursor{}
	if pool := as.pool; pool != nil && len(pool.spaces) < maxPooledSpaces {
		dirty := as.dirty[:0]
		*as = AddressSpace{dirty: dirty}
		pool.spaces = append(pool.spaces, as)
	}
}

// walk descends to the PT node containing va. If build is true, missing
// nodes on the path are created and shared ones are privatized (CoW of
// the table structure itself). Returns nil if the PT is absent and
// !build.
func (as *AddressSpace) walk(va uint64, build bool) (*leaf, error) {
	if va >= MaxVirtual {
		return nil, errBadAddress
	}
	n := as.root
	for level := levels - 1; ; level-- {
		idx := index(va, level)
		r, ok := n.rank(idx)
		switch {
		case !ok && !build:
			return nil, nil
		case !ok:
			var child tableNode
			var err error
			if level > 1 {
				child, err = newInterior(as.st, as.pool)
			} else {
				child, err = newLeaf(as.st, as.pool)
			}
			if err != nil {
				return nil, err
			}
			n.insert(idx, r, child)
		case build:
			cp, err := as.privatize(n.kids[r])
			if err != nil {
				return nil, err
			}
			n.kids[r] = cp
		}
		if level == 1 {
			return n.kids[r].(*leaf), nil
		}
		n = n.kids[r].(*interior)
	}
}

// Unmap removes the mapping at va if present, dropping the frame
// reference. An address that was never mapped returns ErrNotMapped and
// leaves the table structure as it was.
func (as *AddressSpace) Unmap(va uint64) error {
	if as.frozen {
		panic("pagetable: mutation of frozen address space")
	}
	if va%mem.PageSize != 0 {
		return errBadAddress
	}
	i := index(va, 0)
	pt, err := as.walk(va, false)
	if err != nil {
		return err
	}
	if pt == nil || pt.frames[i] == 0 {
		return errNotMapped
	}
	// There is a mapping to remove: only now privatize the path to it.
	if pt, err = as.walk(va, true); err != nil {
		return err
	}
	if pt.flags[i]&flagDirtyListed != 0 {
		for j, d := range as.dirty {
			if d == va {
				as.dirty[j] = as.dirty[len(as.dirty)-1]
				as.dirty = as.dirty[:len(as.dirty)-1]
				break
			}
		}
	}
	as.st.DecRef(pt.frames[i])
	pt.frames[i], pt.flags[i] = 0, 0
	as.mapped--
	return nil
}

// Translate returns the frame and flags mapped at va's page, or ok=false.
// It does not set the accessed bit (use Load/Store for access
// semantics). The software dirty-list bookkeeping bit is masked out.
func (as *AddressSpace) Translate(va uint64) (mem.Frame, flags, bool) {
	pt, err := as.walk(PageBase(va), false)
	if err != nil || pt == nil {
		return 0, 0, false
	}
	i := index(va, 0)
	if pt.frames[i] == 0 {
		return 0, 0, false
	}
	return pt.frames[i], pt.flags[i] &^ flagDirtyListed, true
}

// Load copies memory at va into dst, crossing page boundaries as
// needed. Unmapped pages read as zeros (the shared zero page). Load
// does not set accessed bits: leaf nodes may be shared with frozen
// snapshots, and nothing in the capture path consumes the A bit.
func (as *AddressSpace) Load(va uint64, dst []byte) error {
	for len(dst) > 0 {
		if va >= MaxVirtual {
			return errBadAddress
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
			clear(dst[:n])
		} else if f := pt.frames[index(va, 0)]; f == 0 {
			clear(dst[:n])
		} else {
			as.st.Read(f, off, dst[:n])
		}
		dst = dst[n:]
		va += uint64(n)
	}
	return nil
}

// Store writes data at va, crossing page boundaries, resolving faults
// exactly as the SEUSS kernel handler does: demand-zero for unmapped
// pages, frame clones for CoW pages. Dirty bits are set and the dirty
// list updated.
func (as *AddressSpace) Store(va uint64, data []byte) error {
	for len(data) > 0 {
		if va >= MaxVirtual {
			return errBadAddress
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
		as.st.Write(f, off, data[:n])
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
func (as *AddressSpace) faultForWrite(va uint64) (mem.Frame, error) {
	if as.frozen {
		panic("pagetable: store to frozen address space")
	}
	pt, err := as.cache.at(as, va, true)
	if err != nil {
		return 0, err
	}
	i := index(va, 0)
	flags := pt.flags[i]
	switch {
	case pt.frames[i] == 0:
		// Demand-zero fault: allocate a fresh frame.
		f, err := as.st.Alloc()
		if err != nil {
			return 0, err
		}
		pt.frames[i] = f
		flags = flagPresent | flagWritable | flagUser
		as.mapped++
		as.Faults.DemandZero++
	case flags&flagWritable == 0 && flags&flagCoW != 0:
		// CoW fault: clone the snapshot's frame; all writes land on a
		// page dedicated exclusively to this UC (§5).
		f, err := as.st.Clone(pt.frames[i])
		if err != nil {
			return 0, err
		}
		as.st.DecRef(pt.frames[i])
		pt.frames[i] = f
		flags = (flags &^ flagCoW) | flagWritable
		as.Faults.CoW++
	case flags&flagWritable == 0:
		return 0, fmt.Errorf("pagetable: write protection fault at %#x", va)
	}
	if flags&flagDirtyListed == 0 {
		as.dirty = append(as.dirty, va)
	}
	pt.flags[i] = flags | flagDirty | flagAccessed | flagDirtyListed
	return pt.frames[i], nil
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
	pt       *leaf
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
		return errBadAddress
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
		if f := si.pt.frames[index(va, 0)]; f == 0 || !as.st.Materialized(f) {
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
		as.st.Write(f, 0, content)
	}
	i := index(va, 0)
	if old := si.pt.frames[i]; old != 0 {
		as.st.DecRef(old)
	} else {
		as.mapped++
	}
	si.pt.frames[i] = f
	si.pt.flags[i] = flagPresent | flagUser | flagCoW | flagAccessed
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
	var cur ptCursor
	resolved := 0
	for _, va := range vas {
		if va >= MaxVirtual || va%mem.PageSize != 0 {
			return resolved, errBadAddress
		}
		pt, err := cur.at(as, va, true)
		if err != nil {
			return resolved, err
		}
		i := index(va, 0)
		flags := pt.flags[i]
		switch {
		case pt.frames[i] == 0:
			f, err := as.st.Alloc()
			if err != nil {
				return resolved, err
			}
			pt.frames[i] = f
			flags = flagPresent | flagWritable | flagUser
			as.mapped++
		case flags&flagWritable == 0 && flags&flagCoW != 0:
			f, err := as.st.Clone(pt.frames[i])
			if err != nil {
				return resolved, err
			}
			as.st.DecRef(pt.frames[i])
			pt.frames[i] = f
			flags = (flags &^ flagCoW) | flagWritable
		default:
			continue // already writable (or protected): nothing to prefetch
		}
		if flags&flagDirtyListed == 0 {
			as.dirty = append(as.dirty, va)
		}
		pt.flags[i] = flags | flagDirty | flagAccessed | flagDirtyListed
		as.Faults.Prefetched++
		resolved++
	}
	if cur.ok {
		// Seed the one-entry fault cache with the last span: residual
		// on-demand faults often land near the tail of the working set.
		as.cache = cur
	}
	return resolved, nil
}

// DirtyPages returns the sorted page-base addresses written since
// creation or the last ClearDirty — the set snapshot capture clones.
func (as *AddressSpace) DirtyPages() []uint64 {
	out := slices.Clone(as.dirty)
	slices.Sort(out)
	return out
}

// DirtyCount returns the number of dirty pages without copying the list.
func (as *AddressSpace) DirtyCount() int { return len(as.dirty) }

// ClearDirty resets dirty tracking (hardware D bits and the software
// list). Called after a snapshot capture. The list's storage is kept
// for the next cycle.
func (as *AddressSpace) ClearDirty() {
	var cur ptCursor
	for _, va := range as.dirty {
		if pt, _ := cur.at(as, va, false); pt != nil {
			pt.flags[index(va, 0)] &^= flagDirty | flagDirtyListed
		}
	}
	as.dirty = as.dirty[:0]
}

// SetCoWAll downgrades every writable mapping to read-only CoW. Clone
// already produces CoW views; this is used when freezing a live space
// into a snapshot in place.
//
// A node with more than one reference is skipped with everything under
// it. It became shared through a Clone, whose contract is that the
// source was downgraded first, and nothing has written under it since:
// a store reaches an entry only through walk(build), which privatizes
// every shared node on the way down, so the writable entry it leaves
// behind lives in a private copy. A shared subtree is therefore
// read-only CoW already, and a capture walks only the nodes the space
// has privatized since it was deployed.
func (as *AddressSpace) SetCoWAll() { setCoW(as.root) }

func setCoW(n tableNode) {
	if n.header().refs > 1 {
		return
	}
	switch n := n.(type) {
	case *interior:
		for _, kid := range n.kids {
			setCoW(kid)
		}
	case *leaf:
		for i, flags := range n.flags {
			if flags&flagWritable != 0 {
				n.flags[i] = (flags &^ flagWritable) | flagCoW
			}
		}
	}
}

// PresentPages returns the sorted page-base addresses of every present
// leaf mapping.
func (as *AddressSpace) PresentPages() []uint64 {
	out := make([]uint64, 0, as.mapped)
	as.WalkDiff(nil, func(va uint64, _ mem.Frame) { out = append(out, va) })
	return out
}

// WalkDiff calls visit, in ascending address order, with every present
// page whose frame differs from the one base maps at the same address
// (or that base does not map) — the pages a snapshot owns beyond its
// base. The two trees are walked in parallel, and a subtree whose node
// is base's node in the same slot is skipped unentered, so the walk
// costs the table nodes this space has privatized, not the pages it
// maps. A nil base visits every present page.
func (as *AddressSpace) WalkDiff(base *AddressSpace, visit func(va uint64, f mem.Frame)) {
	var other tableNode
	if base != nil {
		other = base.root
	}
	walkDiff(as.root, other, levels-1, 0, visit)
}

// walkDiff visits the pages under n, whose own slot starts at prefix,
// that base (the node in the same slot of the other tree, or nil) maps
// differently.
func walkDiff(n, base tableNode, level int, prefix uint64, visit func(uint64, mem.Frame)) {
	if n == base {
		return
	}
	shift := uint(mem.PageShift + indexBits*level)
	switch n := n.(type) {
	case *interior:
		b, _ := base.(*interior)
		n.eachKid(func(idx int, kid tableNode) {
			var bkid tableNode
			if b != nil {
				if r, ok := b.rank(idx); ok {
					bkid = b.kids[r]
				}
			}
			walkDiff(kid, bkid, level-1, prefix|uint64(idx)<<shift, visit)
		})
	case *leaf:
		b, _ := base.(*leaf)
		for i, f := range n.frames {
			if f != 0 && (b == nil || b.frames[i] != f) {
				visit(prefix|uint64(i)<<shift, f)
			}
		}
	}
}

// TableNodes returns the number of page-table nodes reachable from this
// space, and how many of those are private — reachable only through
// this space (every node on the path from the root has a single
// reference).
func (as *AddressSpace) TableNodes() (total, private int) {
	var count func(n tableNode, exclusive bool)
	count = func(n tableNode, exclusive bool) {
		total++
		exclusive = exclusive && n.header().refs == 1
		if exclusive {
			private++
		}
		if n, ok := n.(*interior); ok {
			for _, kid := range n.kids {
				count(kid, exclusive)
			}
		}
	}
	count(as.root, true)
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
