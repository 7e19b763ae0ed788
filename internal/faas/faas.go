// Package faas implements the OpenWhisk-like FaaS platform of the
// macro evaluation (§6, §7): an action registry (the CouchDB role), a
// topic-based message bus (the Kafka role), a controller with its
// API-gateway overheads, and interchangeable compute backends —
//
//   - LinuxBackend: the stock OpenWhisk invoker managing Docker
//     containers, with the stemcell cache, the container cache limit,
//     and the bridged network whose broadcast scaling caps it;
//   - SeussBackend: the drop-in SEUSS OS replacement reached through
//     the shim process, whose TCP connection serializes messages and
//     adds the ≈8 ms hop of §6. Behind the shim sits one node, a
//     sharded shared-nothing pool (internal/shardpool), or a multi-node
//     DR-SEUSS cluster (internal/cluster) with scheduler-driven,
//     snapshot-locality-aware placement.
//
// A Cluster over either satisfies workload.Invoker, so every macro
// experiment runs unmodified against both.
package faas

import (
	"errors"
	"time"

	"seuss/internal/cluster"
	"seuss/internal/core"
	"seuss/internal/costs"
	"seuss/internal/fault"
	"seuss/internal/isolation"
	"seuss/internal/metrics"
	"seuss/internal/netsim"
	"seuss/internal/shardpool"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// ErrNoCapacity is returned when the Linux invoker cannot obtain a
// container before the platform timeout.
var ErrNoCapacity = errors.New("faas: no container capacity")

// Action is a registered function (the CouchDB document).
type Action struct {
	Name     string
	Source   string
	Revision int
}

// Registry is the action store.
type Registry struct {
	actions map[string]*Action
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{actions: make(map[string]*Action)} }

// Put registers or updates an action, bumping its revision.
func (r *Registry) Put(name, source string) *Action {
	if a, ok := r.actions[name]; ok {
		a.Source = source
		a.Revision++
		return a
	}
	a := &Action{Name: name, Source: source, Revision: 1}
	r.actions[name] = a
	return a
}

// Get looks an action up.
func (r *Registry) Get(name string) (*Action, bool) {
	a, ok := r.actions[name]
	return a, ok
}

// Len returns the number of registered actions.
func (r *Registry) Len() int { return len(r.actions) }

// Backend is a compute node reachable from the controller.
type Backend interface {
	// Invoke services one invocation inside p.
	Invoke(p *sim.Proc, spec workload.Spec, args string) error
	// Name identifies the backend in reports.
	Name() string
}

// RetryPolicy bounds the platform's handling of contained compute
// faults: a crashed UC, a deadline kill, or a stalled shard is
// re-submitted to the backend after a doubling backoff, up to Max
// attempts beyond the first. The zero policy retries nothing.
type RetryPolicy struct {
	// Max is the retry budget per activation (retries after the first
	// attempt).
	Max int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 1 ms when Max > 0).
	Backoff time.Duration
}

// Cluster is the whole platform: control plane + one compute backend.
// Requests flow controller → message bus → invoker dispatcher →
// backend, and completions return on per-request reply queues, exactly
// as OpenWhisk routes activations through Kafka.
type Cluster struct {
	eng      *sim.Engine
	registry *Registry
	backend  Backend
	bus      *Bus
	acts     activations
	// Retry is the platform's contained-fault retry policy. Set it
	// before traffic; the dispatcher reads it per activation.
	Retry RetryPolicy
	// Metrics, when non-nil, mirrors the platform outcome counters into
	// the pre-registered metrics registry (CtrPlatformRequests /
	// Failures / Retries). Set it before traffic, alongside Retry.
	Metrics *metrics.Recorder
	// ledger is the platform's own count; only count writes it.
	ledger metrics.Counters
}

// count records one platform event: on the ledger Requests, Failures
// and Retries read, and on the attached recorder (nil-safe).
func (c *Cluster) count(ctr metrics.Counter) {
	c.ledger[ctr]++
	c.Metrics.Inc(ctr)
}

// Requests and Failures count platform-level outcomes; Retries counts
// re-submissions after contained faults.
func (c *Cluster) Requests() int64 { return c.ledger[metrics.CtrPlatformRequests] }
func (c *Cluster) Failures() int64 { return c.ledger[metrics.CtrPlatformFailures] }
func (c *Cluster) Retries() int64  { return c.ledger[metrics.CtrPlatformRetries] }

// busRequest is one activation in flight on the bus.
type busRequest struct {
	spec  workload.Spec
	args  string
	reply *sim.Queue
}

// invokerTopic is the bus topic the compute backend consumes.
const invokerTopic = "invoker0"

// NewCluster assembles a platform over the given backend and starts
// its invoker dispatcher.
func NewCluster(eng *sim.Engine, backend Backend) *Cluster {
	c := &Cluster{eng: eng, registry: NewRegistry(), backend: backend, bus: NewBus(eng)}
	c.acts = activations{byID: make(map[int64]*Activation), updated: sim.NewSignal(eng)}
	eng.Go("invoker-dispatch", func(p *sim.Proc) {
		for {
			m, ok := c.bus.Consume(p, invokerTopic)
			if !ok {
				return
			}
			r := m.Body.(*busRequest)
			// Each activation is handled concurrently; the backend
			// applies its own concurrency limits.
			eng.Go("activation", func(hp *sim.Proc) {
				err := c.invokeWithRetry(hp, r.spec, r.args)
				r.reply.Put(err)
			})
		}
	})
	return c
}

// invokeWithRetry drives one activation through the backend, spending
// the retry budget on contained faults only: a crashed UC is
// redeployed from its immutable snapshot on the retry (SEUSS §4's
// containment property is what makes blind re-submission safe).
// Deterministic failures — bad source, uncontained backend errors —
// surface immediately.
func (c *Cluster) invokeWithRetry(p *sim.Proc, spec workload.Spec, args string) error {
	err := c.backend.Invoke(p, spec, args)
	if err == nil || c.Retry.Max <= 0 {
		return err
	}
	backoff := c.Retry.Backoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	for attempt := 0; attempt < c.Retry.Max && err != nil && fault.IsContained(err); attempt++ {
		c.count(metrics.CtrPlatformRetries)
		p.Sleep(backoff)
		backoff *= 2
		err = c.backend.Invoke(p, spec, args)
	}
	return err
}

// Bus exposes the message service (instrumentation).
func (c *Cluster) Bus() *Bus { return c.bus }

// Registry exposes the action store (trials pre-register functions the
// way the paper populates a fresh OpenWhisk deployment).
func (c *Cluster) Registry() *Registry { return c.registry }

// Backend returns the compute backend.
func (c *Cluster) Backend() Backend { return c.backend }

// Invoke implements workload.Invoker: API gateway + controller
// overhead, publish the activation to the bus, and block on the reply
// (the paper's benchmark issues synchronous requests).
func (c *Cluster) Invoke(p *sim.Proc, spec workload.Spec, args string) error {
	c.count(metrics.CtrPlatformRequests)
	c.registry.Put(spec.Key, spec.Source) // idempotent registration
	p.Sleep(costs.ControllerOverhead)
	r := &busRequest{spec: spec, args: args, reply: sim.NewQueue(c.eng)}
	c.bus.Publish(invokerTopic, r)
	v, _ := r.reply.Get(p)
	if v != nil {
		if err, ok := v.(error); ok {
			c.count(metrics.CtrPlatformFailures)
			return err
		}
	}
	return nil
}

// ---- SEUSS backend ----

// Invoker is the compute side behind the shim: it serves one request
// inside p and charges p whatever virtual time the service took.
type Invoker func(p *sim.Proc, req core.Request) error

// SeussBackend fronts SEUSS compute with the shim process of §6:
// requests are read from the message bus by the shim and forwarded over
// its TCP connection into the VM. The compute behind the shim is an
// Invoker — one node, a sharded pool, or a DR-SEUSS cluster; the front
// door is the same for all three.
type SeussBackend struct {
	name   string
	node   *core.Node // the single-node backend's node; nil otherwise
	invoke Invoker
	shim   *sim.Resource
	rng    *sim.RNG
	// Deadline, when set, bounds every invocation this backend serves:
	// it is threaded through core.Request into the interpreter's step
	// budget, so a runaway guest is killed (and its UC destroyed)
	// instead of wedging the node. Zero defers to the node's own
	// InvokeDeadline.
	Deadline time.Duration
}

// newSeussBackend builds the front door: lanes is how many shim
// connections serialize message transfer.
func newSeussBackend(eng *sim.Engine, name string, lanes int, invoke Invoker) *SeussBackend {
	return &SeussBackend{
		name:   name,
		invoke: invoke,
		shim:   sim.NewResource(eng, lanes),
		rng:    sim.NewRNG(0x5E05),
	}
}

// NewSeussBackend wraps a node ("seuss").
func NewSeussBackend(node *core.Node) *SeussBackend {
	b := newSeussBackend(node.Engine(), "seuss", 1, func(p *sim.Proc, req core.Request) error {
		_, err := node.Invoke(p, req)
		return err
	})
	b.node = node
	return b
}

// NewSeussPoolBackend wraps a sharded node pool (internal/shardpool)
// for platform use ("seuss-pool"): the compute side fans out across
// shared-nothing shards, so the invoker no longer serializes on one
// engine.
//
// Bridge semantics: the platform's virtual clock and the pool's
// per-shard virtual clocks are distinct. An invocation crosses the
// boundary synchronously — the pool serves it in wall clock while the
// platform clock is frozen — and the shard-side virtual service time
// is then charged to the platform task as a Sleep. Platform-level
// determinism therefore holds only for the overheads and the per-shard
// latencies, not for cross-shard interleaving.
func NewSeussPoolBackend(eng *sim.Engine, pool *shardpool.Pool) *SeussBackend {
	return newSeussBackend(eng, "seuss-pool", 1, func(p *sim.Proc, req core.Request) error {
		res, err := pool.Invoke(req)
		if err != nil {
			return err
		}
		p.Sleep(res.Latency)
		return nil
	})
}

// NewSeussDistBackend wraps a multi-node DR-SEUSS cluster
// (internal/cluster) for platform use ("seuss-dist"): placement across
// nodes is delegated to the cluster's scheduler — locality-aware
// routing over the gossiped snapshot directory, and replication by
// layer fetch when a holder saturates. The cluster must share the
// platform's engine. Each member node runs its own shim process, so the
// front door has one serialization lane per member.
func NewSeussDistBackend(eng *sim.Engine, c *cluster.Cluster) *SeussBackend {
	lanes := len(c.Members())
	if lanes < 1 {
		lanes = 1
	}
	return newSeussBackend(eng, "seuss-dist", lanes, func(p *sim.Proc, req core.Request) error {
		_, _, err := c.Invoke(p, req)
		return err
	})
}

// Node returns the compute node behind NewSeussBackend; nil for the
// pool and cluster backends.
func (b *SeussBackend) Node() *core.Node { return b.node }

// Name implements Backend.
func (b *SeussBackend) Name() string { return b.name }

// Invoke implements Backend: a shim connection serializes message
// transfer (the Table 3 creation-rate bottleneck) and the extra hop
// adds ≈8 ms to the round trip (§7's 21% at small set sizes).
func (b *SeussBackend) Invoke(p *sim.Proc, spec workload.Spec, args string) error {
	b.shim.Acquire(p)
	p.Sleep(b.rng.Jitter(costs.ShimSerialize, 0.08))
	b.shim.Release()
	p.Sleep(costs.ShimHop - costs.ShimSerialize)
	return b.invoke(p, core.Request{
		Key: spec.Key, Source: spec.Source, Args: args, Deadline: b.Deadline,
	})
}

// ---- Linux backend ----

// LinuxConfig parameterizes the stock OpenWhisk invoker.
type LinuxConfig struct {
	// ContainerLimit caps live containers (1024 in the throughput
	// runs — the Linux bridge's default endpoint limit).
	ContainerLimit int
	// Stemcells is the pre-warmed container pool target (256 in the
	// burst experiment, 0 = disabled as in the throughput runs).
	Stemcells int
	// Cores is the node's CPU count.
	Cores int
	// MemoryBytes is the node's memory.
	MemoryBytes int64
	// Seed drives drop/jitter randomness.
	Seed int64
}

func (c LinuxConfig) withDefaults() LinuxConfig {
	if c.ContainerLimit == 0 {
		c.ContainerLimit = 1024
	}
	if c.Cores == 0 {
		c.Cores = costs.NodeCores
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = costs.NodeMemoryBytes
	}
	return c
}

// container is one warm Docker container with imported code.
type container struct {
	inst *isolation.Instance
	fn   string
	last sim.Time
	busy bool
}

// LinuxBackend is the stock OpenWhisk invoker on a Linux compute node.
type LinuxBackend struct {
	eng          *sim.Engine
	cfg          LinuxConfig
	cores        *sim.Resource
	invoker      *sim.Resource // the invoker's serialized dispatch path
	docker       *isolation.Backend
	bridge       *netsim.Bridge
	rng          *sim.RNG
	byFn         map[string][]*container
	creating     map[string]int // in-flight creations per function
	stemcells    []*container
	total        int
	freed        *sim.Signal // broadcast when a container frees
	replenishing bool

	// Stats
	Cold, Warm, Errors int64
}

// NewLinuxBackend builds the Linux invoker and, if configured, starts
// the stemcell replenisher.
func NewLinuxBackend(eng *sim.Engine, cfg LinuxConfig) *LinuxBackend {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	bridge := netsim.NewBridge(rng)
	b := &LinuxBackend{
		eng:      eng,
		cfg:      cfg,
		cores:    sim.NewResource(eng, cfg.Cores),
		invoker:  sim.NewResource(eng, 1),
		docker:   isolation.NewBackend(isolation.KindContainer, isolation.NewMemPool(cfg.MemoryBytes), bridge, rng),
		bridge:   bridge,
		rng:      rng,
		byFn:     make(map[string][]*container),
		creating: make(map[string]int),
		freed:    sim.NewSignal(eng),
	}
	if cfg.Stemcells > 0 {
		b.prewarmStemcells()
	}
	return b
}

// prewarmStemcells populates the initial stemcell pool during platform
// setup (the paper's burst trials start from a fresh deployment with
// the cache configured, before the measurement clock matters), so no
// virtual time is charged.
func (b *LinuxBackend) prewarmStemcells() {
	for i := 0; i < b.cfg.Stemcells; i++ {
		inst, err := b.docker.Prewarm()
		if err != nil {
			return
		}
		b.total++
		b.stemcells = append(b.stemcells, &container{inst: inst, last: b.eng.Now()})
	}
}

// Name implements Backend.
func (b *LinuxBackend) Name() string { return "linux" }

// Bridge exposes the container network (instrumentation).
func (b *LinuxBackend) Bridge() *netsim.Bridge { return b.bridge }

// maybeReplenish restarts the stemcell replenisher after the pool is
// consumed. The replenisher competes with invocations for the Docker
// daemon — the §7 observation that automatic background container
// construction interferes with cold starts — and exits once the pool
// is back at target (keeping the event queue drainable).
func (b *LinuxBackend) maybeReplenish() {
	if b.cfg.Stemcells == 0 || b.replenishing {
		return
	}
	b.replenishing = true
	b.eng.Go("stemcell-replenisher", func(p *sim.Proc) {
		defer func() { b.replenishing = false }()
		for len(b.stemcells) < b.cfg.Stemcells && b.total < b.cfg.ContainerLimit {
			b.total++
			inst, err := b.docker.Create(p)
			if err != nil {
				b.total--
				return
			}
			b.stemcells = append(b.stemcells, &container{inst: inst, last: b.eng.Now()})
			b.freed.Broadcast()
		}
	})
}

// Invoke implements Backend.
func (b *LinuxBackend) Invoke(p *sim.Proc, spec workload.Spec, args string) error {
	p.Sleep(costs.InvokerOverhead)
	// The invoker's dispatch path is serialized (message decode,
	// scheduling, result collection share one loop).
	b.invoker.Acquire(p)
	p.Sleep(b.rng.Jitter(costs.InvokerSerialize, 0.08))
	b.invoker.Release()

	ctr, err := b.acquireContainer(p, spec)
	if err != nil {
		b.Errors++
		return err
	}
	err = b.runIn(p, ctr, spec)
	ctr.busy = false
	ctr.last = b.eng.Now()
	b.freed.Broadcast()
	if err != nil {
		b.Errors++
		return err
	}
	return nil
}

// acquireContainer finds or builds a warm container for the function:
// idle container → stemcell import → fresh create → evict-and-create,
// waiting for capacity up to the platform timeout.
func (b *LinuxBackend) acquireContainer(p *sim.Proc, spec workload.Spec) (*container, error) {
	deadline := p.Now().Add(costs.ConnTimeout)
	for {
		// A request that cannot be scheduled before the platform
		// timeout has already failed upstream.
		if p.Now() > deadline {
			return nil, ErrNoCapacity
		}
		// Warm: idle container already holding this function.
		if list := b.byFn[spec.Key]; len(list) > 0 {
			for _, ctr := range list {
				if !ctr.busy {
					ctr.busy = true
					b.Warm++
					return ctr, nil
				}
			}
		}
		// Stemcell: import code into a pre-warmed container.
		if len(b.stemcells) > 0 {
			ctr := b.stemcells[len(b.stemcells)-1]
			b.stemcells = b.stemcells[:len(b.stemcells)-1]
			ctr.fn = spec.Key
			ctr.busy = true
			b.byFn[spec.Key] = append(b.byFn[spec.Key], ctr)
			b.maybeReplenish()
			p.Sleep(costs.StemcellImport)
			b.Cold++
			return ctr, nil
		}
		// Busy containers exist for this action: queue briefly for one
		// to free; only a full ActionQueueWait without any completion
		// spawns an additional container (scale-out under sustained
		// concurrency without racing the daemon on every lost wakeup).
		if len(b.byFn[spec.Key]) > 0 {
			if b.freed.WaitTimeout(p, costs.ActionQueueWait) {
				continue // something freed; re-check the warm path
			}
		}
		// A container for this action is already being created and none
		// exists yet: wait for the first one rather than racing the
		// Docker daemon with duplicates nobody can use.
		if len(b.byFn[spec.Key]) == 0 && b.creating[spec.Key] > 0 {
			b.freed.WaitTimeout(p, costs.ActionQueueWait)
			continue
		}
		// Create: room below the container limit.
		if b.total < b.cfg.ContainerLimit {
			ctr, err := b.createFor(p, spec)
			if err == nil {
				if p.Now() > deadline {
					// The activation timed out while the daemon was
					// still building its container: the request fails
					// upstream, but the container joins the cache.
					ctr.busy = false
					ctr.last = b.eng.Now()
					b.freed.Broadcast()
					return nil, ErrNoCapacity
				}
				b.Cold++
				return ctr, nil
			}
			if err != isolation.ErrOutOfMemory {
				return nil, err
			}
		}
		// Evict: destroy the LRU idle container, then retry.
		if victim := b.lruIdle(); victim != nil {
			b.removeContainer(p, victim)
			continue
		}
		// Everything is busy: wait for a container to free.
		b.freed.Wait(p)
	}
}

// createFor builds a brand-new container and imports the function. The
// container-limit slot is reserved up front: creations take seconds,
// and admitting more of them than the limit would overshoot it. A
// share of the creation burns node CPU, contending with running
// functions.
func (b *LinuxBackend) createFor(p *sim.Proc, spec workload.Spec) (*container, error) {
	b.total++
	b.creating[spec.Key]++
	inst, err := b.docker.Create(p)
	// dockerd/containerd/runc burn node CPU concurrently with the
	// creation, contending with running functions (the background
	// stream disturbance of Figures 6-8).
	b.eng.Go("docker-cpu", func(bp *sim.Proc) { b.cores.Use(bp, costs.ContainerCreateCPU) })
	b.creating[spec.Key]--
	if b.creating[spec.Key] == 0 {
		delete(b.creating, spec.Key)
	}
	if err != nil {
		b.total--
		return nil, err
	}
	b.freed.Broadcast() // wake same-action waiters
	ctr := &container{inst: inst, fn: spec.Key, busy: true, last: b.eng.Now()}
	b.byFn[spec.Key] = append(b.byFn[spec.Key], ctr)
	p.Sleep(costs.StemcellImport) // code injection into the new container
	return ctr, nil
}

// lruIdle returns the least recently used idle warm container.
func (b *LinuxBackend) lruIdle() *container {
	var lru *container
	for _, list := range b.byFn {
		for _, ctr := range list {
			if ctr.busy {
				continue
			}
			if lru == nil || ctr.last < lru.last {
				lru = ctr
			}
		}
	}
	return lru
}

// removeContainer destroys a container and forgets it.
func (b *LinuxBackend) removeContainer(p *sim.Proc, victim *container) {
	list := b.byFn[victim.fn]
	for i, ctr := range list {
		if ctr == victim {
			b.byFn[victim.fn] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(b.byFn[victim.fn]) == 0 {
		delete(b.byFn, victim.fn)
	}
	b.docker.Destroy(p, victim.inst)
	b.total--
}

// runIn executes the function inside its container: connect across the
// bridge, run the modeled CPU on the node's cores, block for external
// IO.
func (b *LinuxBackend) runIn(p *sim.Proc, ctr *container, spec workload.Spec) error {
	if !b.bridge.Connect() {
		p.Sleep(costs.ConnTimeout)
		return isolation.ErrConnTimeout
	}
	b.cores.Use(p, costs.ContainerWarmInvoke)
	if spec.CPU > 0 {
		b.cores.Use(p, spec.CPU)
	}
	if spec.IO > 0 {
		p.Sleep(spec.IO) // the external server's think time rides the Spec
	}
	return nil
}

// ---- Asynchronous activations ----

// Activation is the platform's record of one invocation (the CouchDB
// activation document): OpenWhisk clients may invoke non-blocking and
// fetch the result later by activation ID.
type Activation struct {
	ID    int64
	Key   string
	Start time.Duration
	End   time.Duration
	Err   error
	Done  bool
}

// activations is the cluster's activation store.
type activations struct {
	next    int64
	byID    map[int64]*Activation
	updated *sim.Signal
}

// InvokeAsync publishes an activation and returns immediately with its
// ID; the result lands in the activation store when the backend
// finishes. Controller overhead is charged to the caller, as for
// blocking invocations.
func (c *Cluster) InvokeAsync(p *sim.Proc, spec workload.Spec, args string) int64 {
	c.count(metrics.CtrPlatformRequests)
	c.registry.Put(spec.Key, spec.Source)
	p.Sleep(costs.ControllerOverhead)
	c.acts.next++
	id := c.acts.next
	act := &Activation{ID: id, Key: spec.Key, Start: time.Duration(c.eng.Now())}
	c.acts.byID[id] = act
	c.eng.Go("activation-async", func(hp *sim.Proc) {
		err := c.invokeWithRetry(hp, spec, args)
		act.End = time.Duration(c.eng.Now())
		act.Err = err
		act.Done = true
		if err != nil {
			c.count(metrics.CtrPlatformFailures)
		}
		c.acts.updated.Broadcast()
	})
	return id
}

// Activation fetches an activation record by ID.
func (c *Cluster) Activation(id int64) (*Activation, bool) {
	a, ok := c.acts.byID[id]
	return a, ok
}

// WaitActivation blocks until the activation completes and returns it;
// nil for unknown IDs.
func (c *Cluster) WaitActivation(p *sim.Proc, id int64) *Activation {
	a, ok := c.acts.byID[id]
	if !ok {
		return nil
	}
	for !a.Done {
		c.acts.updated.Wait(p)
	}
	return a
}
