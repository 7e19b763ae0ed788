// Package libos simulates the Rumprun unikernel that forms the bottom
// of every unikernel context (§6): a POSIX-like library OS booted into
// a language interpreter, with a ramdisk filesystem and an in-guest
// network endpoint, running on the narrow Solo5 hypercall interface.
//
// Everything the guest software allocates flows through the unikernel's
// bump-pointer heap into the UC's simulated address space, so snapshot
// diffs, AO effects, and per-invocation fault counts are *measured* from
// real page-table state. Time costs (boot phases, lazy first-use slow
// paths, connection setup) come from the calibrated table in
// internal/costs.
package libos

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"seuss/internal/costs"
	"seuss/internal/hypercall"
	"seuss/internal/mem"
	"seuss/internal/pagetable"
)

// Guest virtual memory layout. The flat single address space is the
// defining property of a unikernel (§3): kernel, libraries, interpreter
// and function code share one space.
const (
	// kernelBase holds the Rumprun kernel text/data.
	kernelBase = uint64(0x0000_0000_0010_0000)
	// HeapBase is where the unified guest heap begins; it grows upward
	// through interpreter, driver, and function allocations.
	HeapBase = uint64(0x0000_0001_0000_0000)
	// StackTop is the top of the primary guest stack (grows down).
	StackTop = uint64(0x0000_7fff_fff0_0000)
	// stackPages is the committed stack depth.
	stackPages = 64
)

// ErrNotBooted is returned by guest operations before Boot/Rehydrate.
var ErrNotBooted = errors.New("libos: unikernel not booted")

// Env is the time model's CPU sink: what the guest's work costs is
// charged here. It is not a way to the host — every guest service
// crosses the hypercall table (hypercall.Host). The SEUSS kernel
// provides one bound to the discrete-event engine; the single-UC
// harnesses use CountingEnv.
type Env interface {
	// ChargeCPU burns d of guest CPU time.
	ChargeCPU(d time.Duration)
}

// State is the libos portion of a snapshot's guest metadata: the
// simulation's stand-in for state that, on real hardware, lives inside
// the captured memory image itself.
type State struct {
	// HeapBrk is the bump allocator's current break.
	HeapBrk uint64
	// NetWarm records that the network stack's lazy first-use
	// initialization has run in this lineage.
	NetWarm bool
	// NetAO records that network warming happened *before* the base
	// snapshot (the anticipatory optimization), which pre-sizes pools
	// for every descendant.
	NetAO bool
	// Booted records that the kernel boot phases completed.
	Booted bool
	// Files is the ramdisk content (path → size); contents live in
	// guest pages.
	Files map[string]int64
	// FileAddrs maps ramdisk paths to their guest addresses.
	FileAddrs map[string]uint64
}

// Unikernel is one guest instance: the library OS side of a UC.
type Unikernel struct {
	as   *pagetable.AddressSpace
	host hypercall.Host
	env  Env
	st   State

	lastFaults int // fault count already charged to virtual time

	// deployGen is the host-injected deploy generation (restore-time
	// uniqueness, DESIGN.md §14). Deliberately NOT part of State: a
	// snapshot must never capture it, or every clone would restore the
	// same value and the uniqueness guarantee would die in the image.
	// The deploying host sets it after every restore.
	deployGen uint64
}

// New wraps an address space and host interface into an unbooted
// unikernel.
func New(as *pagetable.AddressSpace, host hypercall.Host, env Env) *Unikernel {
	return &Unikernel{
		as:   as,
		host: host,
		env:  env,
		st: State{
			HeapBrk:   HeapBase,
			Files:     make(map[string]int64),
			FileAddrs: make(map[string]uint64),
		},
	}
}

// Space returns the underlying address space.
func (u *Unikernel) Space() *pagetable.AddressSpace { return u.as }

// Env returns the host environment.
func (u *Unikernel) Env() Env { return u.env }

// State returns the rehydration payload for snapshot capture.
func (u *Unikernel) State() State {
	files := make(map[string]int64, len(u.st.Files))
	for k, v := range u.st.Files {
		files[k] = v
	}
	addrs := make(map[string]uint64, len(u.st.FileAddrs))
	for k, v := range u.st.FileAddrs {
		addrs[k] = v
	}
	st := u.st
	st.Files = files
	st.FileAddrs = addrs
	return st
}

// Rehydrate restores guest metadata from a snapshot payload into a
// unikernel fresh from New, without charging any virtual time: on real
// hardware this state is simply part of the restored memory image. The
// address space must already be the snapshot's deployed clone. The
// ramdisk entries are copied into the unikernel's own maps, so the
// payload stays immutable whatever the guest writes.
func (u *Unikernel) Rehydrate(st State) {
	maps.Copy(u.st.Files, st.Files)
	maps.Copy(u.st.FileAddrs, st.FileAddrs)
	st.Files, st.FileAddrs = u.st.Files, u.st.FileAddrs
	u.st = st
	u.syncFaultBase()
}

// SetDeployGeneration records the host-issued generation of the deploy
// that produced this incarnation. Called by the deploying host on every
// path — cold boot, warm deploy, lukewarm promote —
// never restored from a snapshot payload.
func (u *Unikernel) SetDeployGeneration(gen uint64) { u.deployGen = gen }

// DeployGeneration returns the generation of the deploy that produced
// this incarnation (0 only before the first deploy completes).
func (u *Unikernel) DeployGeneration() uint64 { return u.deployGen }

// DrawEntropy pulls one fresh randomness draw from the host — a single
// hypercall crossing. The guest runtime mixes it with the deploy
// generation to reseed its RNG at restore time.
func (u *Unikernel) DrawEntropy() uint64 { return u.host.Entropy() }

// WallTime reads the host clock (Date.now): one crossing.
func (u *Unikernel) WallTime() time.Duration { return u.host.WallTime() }

// Puts writes one console line (console.log): one crossing.
func (u *Unikernel) Puts(s string) { u.host.Puts(s) }

// Sleep blocks the guest for d without burning CPU (sleep): one Poll
// crossing with nothing to wait for but its timeout.
func (u *Unikernel) Sleep(d time.Duration) { u.host.Poll(d) }

// HTTPGet sends an outbound request and reads its reply (http.get):
// two crossings, a NetWrite of the request and a NetRead of the reply.
func (u *Unikernel) HTTPGet(url string) (string, error) {
	if err := u.host.NetWrite([]byte("GET " + url)); err != nil {
		return "", err
	}
	reply, _ := u.host.NetRead()
	return string(reply), nil
}

// syncFaultBase resets fault charging so pre-existing faults (e.g. from
// rehydration-time bookkeeping) are not billed.
func (u *Unikernel) syncFaultBase() {
	u.lastFaults = u.as.Faults.Copied()
}

// chargeFaults bills virtual time for faults resolved since the last
// charge. Every guest-visible operation ends with this, so CoW and
// demand-zero activity shows up in invocation latency exactly as the
// kernel fault handler would.
func (u *Unikernel) chargeFaults() {
	n := u.as.Faults.Copied()
	if d := n - u.lastFaults; d > 0 {
		u.env.ChargeCPU(time.Duration(d) * costs.PageFault)
	}
	u.lastFaults = n
}

// Boot runs the full unikernel boot: Solo5 middleware, Rumprun kernel,
// shared libraries, ramdisk mount, stack setup. It is paid once per
// supported interpreter at system initialization — deployments from
// snapshots skip it entirely (the point of the paper).
func (u *Unikernel) Boot() error {
	if u.st.Booted {
		return fmt.Errorf("libos: double boot")
	}
	// Kernel text/data/bss: written at load time.
	kernelBytes := int64(4 << 20)
	if err := u.as.TouchRange(kernelBase, uint64(kernelBytes)); err != nil {
		return fmt.Errorf("libos: loading kernel image: %w", err)
	}
	// Primary stack.
	if err := u.as.TouchRange(StackTop-uint64(stackPages*mem.PageSize), uint64(stackPages*mem.PageSize)); err != nil {
		return fmt.Errorf("libos: committing stack: %w", err)
	}
	// Hypercall handshake: the boot path queries its world.
	u.host.SetTLS(StackTop - 4096)
	u.host.MemInfo()
	u.host.BlkInfo()
	u.host.NetInfo()
	u.env.ChargeCPU(costs.UnikernelBoot)
	u.st.Booted = true
	u.chargeFaults()
	return nil
}

// Booted reports whether boot (or rehydration from a booted image) has
// completed.
func (u *Unikernel) Booted() bool { return u.st.Booted }

// HeapBrk returns the current bump-allocator break.
func (u *Unikernel) HeapBrk() uint64 { return u.st.HeapBrk }

// Alloc bump-allocates n guest-heap bytes, touching the spanned pages
// (demand-zero or CoW faults as appropriate) and billing fault time.
// It returns the allocation's guest virtual address.
func (u *Unikernel) Alloc(n int64) (uint64, error) {
	if !u.st.Booted {
		return 0, ErrNotBooted
	}
	if n < 0 {
		return 0, fmt.Errorf("libos: negative allocation %d", n)
	}
	addr := u.st.HeapBrk
	if n == 0 {
		return addr, nil
	}
	end := addr + uint64(n)
	// Touch each page the allocation spans. Pages already private stay
	// free; new pages fault.
	first := pagetable.PageBase(addr)
	for p := first; p < end; p += mem.PageSize {
		if err := u.as.Touch(p); err != nil {
			return 0, fmt.Errorf("libos: heap allocation: %w", err)
		}
	}
	u.st.HeapBrk = end
	u.chargeFaults()
	return addr, nil
}

// writeGuest writes real bytes at a guest address (used where content
// fidelity matters, e.g. the ramdisk), billing fault time.
func (u *Unikernel) writeGuest(va uint64, data []byte) error {
	if err := u.as.Store(va, data); err != nil {
		return err
	}
	u.chargeFaults()
	return nil
}

// DirtyHot rewrites n of the pages captured in the image this guest was
// deployed from — the runtime structures (caches, counters, free lists)
// that get mutated on their next use and CoW back in. It walks down
// from just below the heap break, touching every k-th mapped page.
func (u *Unikernel) DirtyHot(n int) {
	if n <= 0 {
		return
	}
	// Stride through the most recently allocated region: hot runtime
	// structures cluster near the top of the heap image.
	const stride = 3 * mem.PageSize
	va := pagetable.PageBase(u.st.HeapBrk)
	for i := 0; i < n && va > HeapBase; i++ {
		if va >= stride {
			va -= stride
		}
		if err := u.as.Touch(va); err != nil {
			break
		}
	}
	u.chargeFaults()
}

// WriteFile stores a file in the ramdisk filesystem, charging its
// content to guest memory. Rumprun's ramdisk holds the interpreter's
// support files and imported function sources.
func (u *Unikernel) WriteFile(path string, data []byte) error {
	if !u.st.Booted {
		return ErrNotBooted
	}
	va, err := u.Alloc(int64(len(data)) + 64) // inode + content
	if err != nil {
		return err
	}
	if err := u.writeGuest(va, data); err != nil {
		return err
	}
	u.st.Files[path] = int64(len(data))
	u.st.FileAddrs[path] = va
	// One blk write round trip through the hypercall interface.
	u.host.BlkWrite(0, nil)
	return nil
}

// WarmNetwork exercises the guest network stack end to end — the
// network anticipatory optimization (§3): an HTTP request is sent into
// the unikernel before the base snapshot is captured, migrating lazy
// pool growth and protocol table setup into the shared image. Beyond
// plain first-use initialization it pre-grows pools to production
// depth, trading base-snapshot bytes for cheap descendant connects.
func (u *Unikernel) WarmNetwork() error {
	if !u.st.Booted {
		return ErrNotBooted
	}
	if err := u.ensureNetFirstUse(); err != nil {
		return err
	}
	if !u.st.NetAO {
		if _, err := u.Alloc(costs.NetAOExtraBytes); err != nil {
			return err
		}
	}
	u.st.NetAO = true
	return nil
}

// Resume performs the guest work that follows a deployment: the resumed
// unikernel rewrites its stacks, timers, scheduler bookkeeping, and
// rebinds the driver's listening socket. These writes are the dominant
// part of an idle UC's marginal footprint.
func (u *Unikernel) Resume() error {
	if !u.st.Booted {
		return ErrNotBooted
	}
	if _, err := u.Alloc(costs.ResumeStateBytes); err != nil {
		return err
	}
	return nil
}

// ensureNetFirstUse runs the lazy first-use network initialization if
// this lineage has never carried traffic.
func (u *Unikernel) ensureNetFirstUse() error {
	if u.st.NetWarm {
		return nil
	}
	if _, err := u.Alloc(costs.NetAOBytes); err != nil {
		return err
	}
	// The slow path crosses the hypercall boundary repeatedly while
	// bringing up the device.
	u.host.NetInfo()
	u.host.NetWrite(nil)
	u.env.ChargeCPU(costs.NetFirstUse)
	u.st.NetWarm = true
	return nil
}

// Conn is an accepted host→UC connection (the invocation driver's
// channel for code, arguments, and results).
type Conn struct {
	uk    *Unikernel
	alive bool
}

// AcceptConnection models the driver accepting a TCP connection from
// the SEUSS kernel. Cost depends on whether the image lineage carries
// the network AO: pre-grown pools make per-connection setup cheap.
func (u *Unikernel) AcceptConnection() (*Conn, error) {
	if !u.st.Booted {
		return nil, ErrNotBooted
	}
	if err := u.ensureNetFirstUse(); err != nil {
		return nil, err
	}
	if _, err := u.Alloc(costs.ConnStateBytes); err != nil {
		return nil, err
	}
	if u.st.NetAO {
		u.env.ChargeCPU(costs.ConnectWarm)
	} else {
		u.env.ChargeCPU(costs.ConnectCold)
	}
	u.host.NetRead()
	u.host.NetWrite(nil)
	u.chargeFaults()
	return &Conn{uk: u, alive: true}, nil
}

// Send models data arriving on the connection (arguments, code).
func (c *Conn) Send(n int64) error {
	if !c.alive {
		return errors.New("libos: send on closed connection")
	}
	// Receive buffers for the payload.
	if _, err := c.uk.Alloc(minInt64(n, 256<<10)); err != nil {
		return err
	}
	c.uk.host.NetRead()
	return nil
}

// Reply models data leaving the UC (results).
func (c *Conn) Reply(n int64) error {
	if !c.alive {
		return errors.New("libos: reply on closed connection")
	}
	c.uk.host.NetWrite(nil)
	c.uk.env.ChargeCPU(costs.ResultReturn)
	return nil
}

// Alive reports whether the connection is open.
func (c *Conn) Alive() bool { return c.alive }

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// CountingEnv is an Env that accumulates charges — the harness for
// single-UC microbenchmarks (Tables 1 and 2), where the paper also
// measures one invocation at a time.
type CountingEnv struct {
	CPU time.Duration
}

// ChargeCPU implements Env.
func (e *CountingEnv) ChargeCPU(d time.Duration) { e.CPU += d }

var _ Env = (*CountingEnv)(nil)
