// Package costs is the single calibration table for every virtual-time
// cost model in the reproduction.
//
// The mechanisms of SEUSS (page tables, CoW, snapshots) are implemented
// for real in this repository, so *memory* numbers are measured, not
// modeled. Time, however, cannot be measured faithfully from Go — we are
// not running V8 on a Xeon — so every latency-bearing operation charges
// virtual time from the constants below. They are calibrated against the
// paper's own microbenchmarks (Table 1-3 of §7) and the scaling laws the
// authors report in prose (container creation growing with population
// and with parallelism, the Linux bridge's O(N) broadcast cost, the shim
// process's serialized TCP hop). EXPERIMENTS.md records how the derived
// results compare per table and figure.
//
// Everything here is a var, not a const, so ablation benchmarks can
// perturb a cost and observe the effect; tests that depend on calibrated
// values must restore anything they change.
package costs

import "time"

// ---- SEUSS UC mechanics (§6, Table 1) ----

var (
	// UCDeploy is the fixed cost of deploying a UC from a snapshot:
	// allocate the UC, shallow-copy the root page table, map it to a
	// core, flush the TLB, and resume at the breakpoint.
	UCDeploy = 300 * time.Microsecond

	// UCDestroy tears a UC down (page table release, core bookkeeping).
	UCDestroy = 50 * time.Microsecond

	// PageFault is the kernel cost of resolving one fault on the UC's
	// address space (CoW clone or demand-zero), including the 4 KB copy.
	PageFault = 1500 * time.Nanosecond

	// SnapshotBase is the fixed cost of a snapshot capture (debug
	// exception, register spill, object setup).
	SnapshotBase = 100 * time.Microsecond

	// SnapshotPerPage is charged per dirty page at capture (page-table
	// walk and clone bookkeeping). 2 MB (≈500 pages) lands near the
	// paper's ≈400 µs NOP-function capture together with SnapshotBase.
	SnapshotPerPage = 600 * time.Nanosecond

	// Hypercall is one domain crossing through the narrow (13-entry)
	// hypercall table.
	Hypercall = 300 * time.Nanosecond
)

// ---- Snapshot disk tier (demotion / lukewarm promotion) ----
//
// The tier sits between RAM and a cold rebuild: promoting an encoded
// diff from local disk must land strictly between the warm path (the
// snapshot is resident) and the cold path (full interpreter replay,
// dominated by CompileBase). Calibrated against NVMe-class sequential
// reads of the ~0.5-2 MB diffs the NOP-function lineages produce.

var (
	// SnapDemoteBase is the fixed cost of demoting a snapshot: encode
	// setup plus the write submission (the write itself completes
	// asynchronously; eviction does not wait for durability).
	SnapDemoteBase = 400 * time.Microsecond

	// SnapDemotePerPage is charged per diff page encoded on demotion.
	SnapDemotePerPage = 200 * time.Nanosecond

	// SnapPromoteBase is the fixed cost of a lukewarm promotion: open +
	// read submission, CRC verification, decode setup, graft
	// bookkeeping.
	SnapPromoteBase = 1200 * time.Microsecond

	// SnapPromotePerPage is charged per diff page read and grafted onto
	// the resident base during promotion.
	SnapPromotePerPage = 500 * time.Nanosecond

	// WSPrefetchBase is the fixed cost of replaying a working-set
	// record on a lukewarm deploy: sidecar read, decode, and the setup
	// of one batched page-table walk (DESIGN.md §13).
	WSPrefetchBase = 8 * time.Microsecond

	// WSPrefetchPerPage is charged per working-set page bulk-mapped
	// before the first instruction. The whole point of record/replay
	// (REAP, arXiv 2101.09355): a page resolved inside one batched
	// span walk costs ~40 ns, versus the 1.5 µs trap-and-resolve of an
	// on-demand PageFault — the serial fault storm collapses ~37×.
	WSPrefetchPerPage = 40 * time.Nanosecond
)

// ---- Guest software stack (Rumprun + interpreter) ----

var (
	// UnikernelBoot is the one-time cost of booting the general-purpose
	// Rumprun unikernel into the interpreter at system initialization
	// (§6: a general-purpose library OS incurs longer boot times). Paid
	// once per supported interpreter, before the runtime snapshot.
	UnikernelBoot = 700 * time.Millisecond

	// InterpreterInit is the one-time interpreter setup (Node.js boot,
	// driver script start) before the runtime snapshot.
	InterpreterInit = 450 * time.Millisecond

	// ConnectWarm is a TCP connection into a UC whose base image had
	// the network anticipatory optimization: buffer pools and protocol
	// tables pre-grown pre-snapshot.
	ConnectWarm = 1500 * time.Microsecond

	// ConnectCold is the same connection when the base image lacks
	// network AO: per-UC pool growth and slow-path setup re-run on
	// every deployment.
	ConnectCold = 3420 * time.Microsecond

	// NetFirstUse is the one-time lazy initialization of the in-guest
	// network stack the first time traffic enters a lineage without
	// network AO (exercised instead pre-snapshot when AO is applied).
	NetFirstUse = 22900 * time.Microsecond

	// InterpFirstUse is the one-time lazy initialization of interpreter
	// internals (parser tables, code caches) the first time a script
	// runs in a lineage without interpreter AO.
	InterpFirstUse = 6900 * time.Microsecond

	// CompileBase is the fixed cost of importing a function: driver
	// message handling, module context creation, compilation setup.
	// Dominates for a NOP function (≈5 ms of the 7.5 ms cold start).
	CompileBase = 3340 * time.Microsecond

	// CompilePerByte scales compilation with source size.
	CompilePerByte = 40 * time.Nanosecond

	// DriverWarm is the per-invocation driver dispatch (accept request,
	// JSON decode/encode, call the function) on an interpreter-AO image.
	DriverWarm = 350 * time.Microsecond

	// DriverCold is the same dispatch when interpreter AO is absent
	// from the lineage: allocator and cache slow paths re-run per UC.
	DriverCold = 2060 * time.Microsecond

	// ArgImport sends one set of invocation arguments into the UC.
	ArgImport = 200 * time.Microsecond

	// ResultReturn carries the function result back out.
	ResultReturn = 100 * time.Microsecond

	// StepTime converts interpreter evaluation steps to CPU time.
	StepTime = 50 * time.Nanosecond
)

// ---- Guest memory behavior (pages; measured quantities emerge from
// the allocator, these size the subsystems) ----

var (
	// RuntimeImageBytes is the resident size of the booted unikernel +
	// interpreter + driver before AO (Table 1: 109.6 MB).
	RuntimeImageBytes = int64(109_600_000)

	// NetAOBytes is the guest memory the network AO warms into the base
	// snapshot (buffer pools, protocol tables).
	NetAOBytes = int64(1_100_000)

	// InterpAOBytes is the guest memory the interpreter AO warms into
	// the base snapshot (caches, intern tables). NetAOBytes +
	// InterpAOBytes ≈ the paper's +4.9 MB base-snapshot growth.
	InterpAOBytes = int64(1_750_000)

	// ImportMachineryBytes is allocated by any function import
	// regardless of source size (module wrapper, compile scratch).
	ImportMachineryBytes = int64(470_000)

	// CompileAllocFactor multiplies a parsed program's Size into guest
	// heap bytes (AST + generated code + metadata).
	CompileAllocFactor = 8

	// ConnStateBytes is per-connection guest state (socket, TLS-less
	// HTTP parsing buffers).
	ConnStateBytes = int64(96_000)

	// InvokeScratchBytes is transient allocation per invocation
	// (request/response JSON, driver bookkeeping) beyond what user code
	// allocates.
	InvokeScratchBytes = int64(220_000)

	// HotWriteFraction is the fraction of a deployed snapshot's diff
	// pages the next invocation writes (runtime structures captured in
	// the diff — caches, counters — are mutated on their next use and
	// CoW back in). This is the mechanism behind AO shrinking *warm*
	// start times: smaller diffs mean fewer CoW faults per invocation.
	HotWriteFraction = 0.45

	// HotWriteCapPages bounds the hot rewrite set: the runtime's
	// mutable working set is finite, so deployments from the huge base
	// runtime snapshot do not rewrite 45% of a 110 MB image.
	HotWriteCapPages = 300

	// ResumeStateBytes is written by a UC immediately after deployment
	// resumes it: stacks, timers, scheduler bookkeeping, socket rebind.
	// It dominates the idle-UC marginal footprint that caps Table 3's
	// 54,000-UC density.
	ResumeStateBytes = int64(1_430_000)

	// NetAOExtraBytes / InterpAOExtraBytes are the extra pool and cache
	// depth the AO pass grows beyond plain first-use initialization
	// (pre-sizing for production load). They bloat the base snapshot —
	// Table 1's 109.6 → 114.5 MB — and are exactly the state that makes
	// descendant connects and dispatches cheap.
	NetAOExtraBytes    = int64(900_000)
	InterpAOExtraBytes = int64(1_100_000)

	// UCKernelMetaBytes is the kernel-side cost of one live UC: its
	// descriptor, event-context stacks, and proxy mappings. Part of the
	// marginal footprint that bounds Table 3's UC density.
	UCKernelMetaBytes = int64(48 * 4096)
)

// ---- Linux-side cost models (Table 3, §7 microbenchmarks) ----

var (
	// ProcessCreate is a Node.js process fork/exec + interpreter boot.
	ProcessCreate = 350 * time.Millisecond

	// ProcessIdleBytes is the marginal RSS of an idle Node.js process
	// (4200 instances in 88 GB).
	ProcessIdleBytes = int64(22_500_000)

	// ContainerCreateBase is Docker container creation with no other
	// containers on the node (the paper observed 541 ms).
	ContainerCreateBase = 541 * time.Millisecond

	// ContainerCreatePerExisting grows creation latency linearly with
	// the container population (541 ms → ~1.5 s at 1000 containers).
	ContainerCreatePerExisting = 950 * time.Microsecond

	// ContainerCreatePerParallel adds contention in the Docker daemon
	// per concurrent creation in flight. Calibrated to Table 3's
	// aggregate 5.3 creations/s at 16-way parallelism (the prose's
	// 8.5 s mean latency is not simultaneously satisfiable with the
	// table's rate; the table wins — see EXPERIMENTS.md).
	ContainerCreatePerParallel = 65 * time.Millisecond

	// DockerDaemonPool is the daemon's effective creation parallelism;
	// beyond it creations queue and thrash.
	DockerDaemonPool = 16

	// ContainerCreateThrash is added per concurrent creation beyond
	// the daemon pool — the regime the burst experiments push Linux
	// into, producing the paper's 10-60 s cold starts and timeouts.
	ContainerCreateThrash = 800 * time.Millisecond

	// ContainerIdleBytes is the marginal footprint of an idle Node.js
	// container (3000 instances in 88 GB).
	ContainerIdleBytes = int64(31_200_000)

	// ContainerDestroy tears down a container (cache eviction cost on
	// the Linux cold path).
	ContainerDestroy = 400 * time.Millisecond

	// MicroVMCreate boots a Firecracker microVM + guest kernel + the
	// container runtime + Node.js (paper: >3 s).
	MicroVMCreate = 3100 * time.Millisecond

	// MicroVMCreatePerParallel is the Kata/Docker-daemon contention per
	// concurrent microVM boot; it holds the aggregate 16-way creation
	// rate at Table 3's 1.3/s despite 16 workers.
	MicroVMCreatePerParallel = 610 * time.Millisecond

	// MicroVMIdleBytes is the marginal footprint of an idle microVM
	// (450 instances in 88 GB; >100 MB over the container).
	MicroVMIdleBytes = int64(208_000_000)

	// ContainerWarmInvoke is the in-container cost of running a cached
	// NOP invocation on Linux.
	ContainerWarmInvoke = 2500 * time.Microsecond
)

// ---- Platform / network (§6 FaaS integration, §7 macro) ----

var (
	// ShimHop is the extra network hop between the OpenWhisk shim
	// process and the SEUSS OS VM (paper: ≈8 ms round trip added).
	ShimHop = 8 * time.Millisecond

	// ShimSerialize is the shim's single-TCP-connection serialization
	// per message; it caps UC creation at ≈128.6/s in Table 3.
	ShimSerialize = 7700 * time.Microsecond

	// ControllerOverhead is the OpenWhisk control-plane cost per
	// request (API gateway, controller, load balancer, Kafka publish).
	ControllerOverhead = 3 * time.Millisecond

	// InvokerOverhead is the Linux invoker's bookkeeping per request.
	InvokerOverhead = 1 * time.Millisecond

	// BridgePerEndpoint is the per-endpoint broadcast-processing cost
	// on the Linux bridge: one broadcast packet costs N × this (§7:
	// "a single broadcast packet ... must be processed in the kernel N
	// separate times"). Calibrated so drops begin just above the
	// 1024-endpoint default bridge limit and are crippling at 3000.
	BridgePerEndpoint = 1220 * time.Nanosecond

	// BridgeBroadcastRate is how many broadcast packets per second the
	// container network generates per active endpoint (ARP/DHCP churn).
	BridgeBroadcastRate = 0.45

	// BridgeDropThreshold is the fraction of a core the bridge soft-IRQ
	// path may consume before packets start dropping and connections
	// time out (the >1024-endpoint failure mode).
	BridgeDropThreshold = 0.50

	// ConnTimeout is how long a platform request waits on a dropped
	// connection before erroring.
	ConnTimeout = 60 * time.Second

	// ExternalHTTPLatency is the benchmark-visible latency to the
	// external HTTP endpoint used by IO-bound functions (network only;
	// the server's 250 ms think time is part of the workload).
	ExternalHTTPLatency = 500 * time.Microsecond
)

// ---- Testbed shape (§7 Experimental Infrastructure) ----

var (
	// NodeCores is the compute node VM's VCPU count.
	NodeCores = 16

	// NodeMemoryBytes is the compute node VM's memory (88 GB).
	NodeMemoryBytes = int64(88) << 30

	// LinkBandwidth is the inter-node network bandwidth in bytes per
	// second: 10 Gb/s, the paper's testbed fabric.
	LinkBandwidth = 10e9 / 8

	// LinkRTT is the inter-node round trip.
	LinkRTT = 150 * time.Microsecond
)

// ---- OpenWhisk invoker path (macro calibration) ----

var (
	// InvokerSerialize is the Linux invoker's serialized per-message
	// dispatch cost (decode, schedule, collect). Together with the
	// shim's 7.7 ms it produces Figure 4's 21% Linux advantage at
	// small function-set sizes: both platforms are dispatch-bound
	// there, at 1/6.4 ms ≈ 156/s vs 1/7.7 ms ≈ 130/s.
	InvokerSerialize = 6400 * time.Microsecond

	// StemcellImport injects function code into a pre-warmed (stemcell
	// or just-created) Node.js container.
	StemcellImport = 80 * time.Millisecond

	// ActionQueueWait is how long the invoker queues a request on a
	// busy action before spawning an additional container for it.
	ActionQueueWait = 40 * time.Millisecond

	// ContainerCreateCPU is the node CPU one container creation burns
	// (dockerd, containerd, runc, network setup) concurrently with the
	// creation itself. During burst-driven creation storms this is
	// what starves the background stream — the gaps in Figures 6-8.
	// The thrash component above is daemon-internal queueing, not CPU.
	ContainerCreateCPU = 450 * time.Millisecond
)
