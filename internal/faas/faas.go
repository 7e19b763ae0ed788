// Package faas models the OpenWhisk-like FaaS platform of the macro
// evaluation (§6, §7) as what the paper measures of it: the API
// gateway and controller as one overhead per request, and
// interchangeable compute backends —
//
//   - LinuxBackend: the stock OpenWhisk invoker managing Docker
//     containers, with the stemcell cache, the container cache limit,
//     and the bridged network whose broadcast scaling caps it;
//   - SeussBackend: the drop-in SEUSS OS replacement reached through
//     the shim process, whose TCP connection serializes messages and
//     adds the ≈8 ms hop of §6. Behind the shim sits one node or a
//     multi-node DR-SEUSS cluster (internal/cluster) with
//     scheduler-driven, snapshot-locality-aware placement.
//
// A Cluster over either satisfies workload.Invoker, so every macro
// experiment runs unmodified against both.
package faas

import (
	"errors"

	"seuss/internal/cluster"
	"seuss/internal/core"
	"seuss/internal/costs"
	"seuss/internal/isolation"
	"seuss/internal/netsim"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// errNoCapacity is returned when the Linux invoker cannot obtain a
// container before the platform timeout.
var errNoCapacity = errors.New("faas: no container capacity")

// backend is a compute node reachable from the controller.
type backend interface {
	// Invoke services one invocation inside p.
	Invoke(p *sim.Proc, spec workload.Spec, args string) error
	// Name identifies the backend in reports.
	Name() string
}

// Cluster is the whole platform: the control plane's overhead in front
// of one compute backend. It decides nothing and re-runs nothing — a
// failure belongs to the layer that can recover from it (the shard
// pool's breaker, the cluster's MaxRetries) and passes through here
// unchanged.
type Cluster struct {
	backend            backend
	requests, failures int64
}

// NewCluster assembles a platform over the given backend.
func NewCluster(backend backend) *Cluster { return &Cluster{backend: backend} }

// Backend returns the compute backend.
func (c *Cluster) Backend() backend { return c.backend }

// Invoke implements workload.Invoker: API gateway + controller
// overhead, then the backend, in the caller's process (the paper's
// benchmark issues synchronous requests).
func (c *Cluster) Invoke(p *sim.Proc, spec workload.Spec, args string) error {
	c.requests++
	p.Sleep(costs.ControllerOverhead)
	err := c.backend.Invoke(p, spec, args)
	if err != nil {
		c.failures++
	}
	return err
}

// ---- SEUSS backend ----

// invoker is the compute side behind the shim: it serves one request
// inside p and charges p whatever virtual time the service took.
type invoker func(p *sim.Proc, req core.Request) error

// SeussBackend fronts SEUSS compute with the shim process of §6:
// requests reach the shim from the controller and are forwarded over
// its TCP connection into the VM. The compute behind the shim is an
// Invoker — one node or a DR-SEUSS cluster; the front door is the same
// for both.
type SeussBackend struct {
	name   string
	node   *core.Node // the single-node backend's node; nil otherwise
	invoke invoker
	shim   *sim.Resource
	rng    *sim.RNG
}

// newSeussBackend builds the front door: lanes is how many shim
// connections serialize message transfer.
func newSeussBackend(eng *sim.Engine, name string, lanes int, invoke invoker) *SeussBackend {
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
// cluster backend.
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
	return b.invoke(p, core.Request{Key: spec.Key, Source: spec.Source, Args: args})
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

// linuxBackend is the stock OpenWhisk invoker on a Linux compute node.
type linuxBackend struct {
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
func NewLinuxBackend(eng *sim.Engine, cfg LinuxConfig) *linuxBackend {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	bridge := netsim.NewBridge(rng)
	b := &linuxBackend{
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
func (b *linuxBackend) prewarmStemcells() {
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
func (b *linuxBackend) Name() string { return "linux" }

// maybeReplenish restarts the stemcell replenisher after the pool is
// consumed. The replenisher competes with invocations for the Docker
// daemon — the §7 observation that automatic background container
// construction interferes with cold starts — and exits once the pool
// is back at target (keeping the event queue drainable).
func (b *linuxBackend) maybeReplenish() {
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
func (b *linuxBackend) Invoke(p *sim.Proc, spec workload.Spec, args string) error {
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
func (b *linuxBackend) acquireContainer(p *sim.Proc, spec workload.Spec) (*container, error) {
	deadline := p.Now().Add(costs.ConnTimeout)
	for {
		// A request that cannot be scheduled before the platform
		// timeout has already failed upstream.
		if p.Now() > deadline {
			return nil, errNoCapacity
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
					return nil, errNoCapacity
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
func (b *linuxBackend) createFor(p *sim.Proc, spec workload.Spec) (*container, error) {
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
func (b *linuxBackend) lruIdle() *container {
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
func (b *linuxBackend) removeContainer(p *sim.Proc, victim *container) {
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
func (b *linuxBackend) runIn(p *sim.Proc, ctr *container, spec workload.Spec) error {
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
