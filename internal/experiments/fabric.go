package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"seuss/internal/cluster"
	"seuss/internal/faas"
	"seuss/internal/metrics"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// fabricPoint is one trial of the placement experiment: a unique
// function count and the throughput a multi-node cluster sustained
// under each placement policy.
type fabricPoint struct {
	SetSize      int
	LocalPerSec  float64 // locality-blind, node-local snapshots only
	FabricPerSec float64 // locality-aware over the snapshot fabric
	LocalColds   int64
	FabricColds  int64
	Fetches      int64 // fabric layer transfers
	LayerDedups  int64 // layers skipped because the digest already existed
	RemoteRoutes int64 // fabric requests forwarded to a holder
}

// figureFabric is the Figure 4 sweep re-run on a DR-SEUSS cluster:
// throughput vs unique-function count for local-only placement (each
// node cold-starts its own copy) against locality-aware placement over
// the content-addressed snapshot fabric (cold at most once per
// cluster, bases deduped by digest).
type figureFabric struct {
	Points []fabricPoint
	Nodes  int
	N      int
	C      int
}

// fabricConfig scales the experiment.
type fabricConfig struct {
	// SetSizes lists the unique-function counts (default 64…1024
	// doubling — the knee of the Figure 4 curve).
	SetSizes []int
	// N is invocations measured per trial (default 800).
	N int
	// Seed fixes the random send orders.
	Seed int64
}

// fabricNodes is the cluster size, and the worker-thread count: the
// dist backend has one shim lane per member, so more threads than nodes
// would measure front-door queueing — identical in both arms — instead
// of placement.
const fabricNodes = 4

func (c fabricConfig) withDefaults() fabricConfig {
	if len(c.SetSizes) == 0 {
		for m := 64; m <= 1024; m *= 2 {
			c.SetSizes = append(c.SetSizes, m)
		}
	}
	if c.N == 0 {
		c.N = 800
	}
	return c
}

// runFabric executes the sweep: each arm of each trial runs on a fresh
// cluster deployment, exactly as the paper re-deploys per trial.
func runFabric(cfg fabricConfig) (figureFabric, error) {
	cfg = cfg.withDefaults()
	// The fabric arm's per-node snapshot tiers live under snapDir.
	snapDir, err := os.MkdirTemp("", "seuss-fabric")
	if err != nil {
		return figureFabric{}, err
	}
	defer os.RemoveAll(snapDir)
	out := figureFabric{Nodes: fabricNodes, N: cfg.N, C: fabricNodes}

	run := func(trial workload.Trial, c cluster.Config) (workload.TrialResult, cluster.Stats, error) {
		eng := sim.NewEngine()
		cl, err := cluster.New(eng, c)
		if err != nil {
			return workload.TrialResult{}, cluster.Stats{}, err
		}
		res := trial.Run(eng, faas.NewCluster(faas.NewSeussDistBackend(eng, cl)))
		return res, cl.Stats(), nil
	}

	for _, m := range cfg.SetSizes {
		fns := make([]workload.Spec, m)
		for i := range fns {
			fns[i] = workload.NOPSpec(i)
		}
		trial := workload.Trial{N: cfg.N, Fns: fns, C: fabricNodes, Seed: cfg.Seed, Warmup: steadyWarmup(m)}

		// Local-only arm: no fabric, no locality — the placer spreads by
		// load alone, so every node pays its own cold starts.
		resL, stL, err := run(trial, cluster.Config{
			Nodes:  fabricNodes,
			Placer: &sched.LeastLoadedPlacer{},
		})
		if err != nil {
			return out, err
		}

		// Fabric arm: locality-aware placement over per-node
		// content-addressed tiers; replication fetches missing layers.
		resF, stF, err := run(trial, cluster.Config{
			Nodes:   fabricNodes,
			Placer:  &sched.LocalityPlacer{Replicate: true},
			SnapDir: filepath.Join(snapDir, fmt.Sprintf("m%d", m)),
		})
		if err != nil {
			return out, err
		}

		out.Points = append(out.Points, fabricPoint{
			SetSize:      m,
			LocalPerSec:  resL.SteadyThroughput(),
			FabricPerSec: resF.SteadyThroughput(),
			LocalColds:   stL.ClusterColds,
			FabricColds:  stF.ClusterColds,
			Fetches:      stF.Fetches,
			LayerDedups:  stF.LayerDedups,
			RemoteRoutes: stF.RemoteRoutes,
		})
	}
	return out, nil
}

// Render formats the sweep as the fabric-placement series.
func (f figureFabric) Render() string {
	tab := metrics.Table{Header: []string{"Set Size (M)", "local (req/s)", "fabric (req/s)", "fabric/local", "local colds", "fabric colds", "routes", "fetches", "dedups"}}
	for _, p := range f.Points {
		ratio := 0.0
		if p.LocalPerSec > 0 {
			ratio = p.FabricPerSec / p.LocalPerSec
		}
		tab.AddRow(
			fmt.Sprintf("%d", p.SetSize),
			fmt.Sprintf("%.1f", p.LocalPerSec),
			fmt.Sprintf("%.1f", p.FabricPerSec),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%d", p.LocalColds),
			fmt.Sprintf("%d", p.FabricColds),
			fmt.Sprintf("%d", p.RemoteRoutes),
			fmt.Sprintf("%d", p.Fetches),
			fmt.Sprintf("%d", p.LayerDedups),
		)
	}
	return fmt.Sprintf("Fabric placement: %d-node cluster throughput (N=%d, C=%d per trial)\n\n", f.Nodes, f.N, f.C) + tab.String()
}

// TSV renders the series as tab-separated values for plotting.
func (f figureFabric) TSV() string {
	var sb strings.Builder
	sb.WriteString("set_size\tlocal_rps\tfabric_rps\tlocal_colds\tfabric_colds\troutes\tfetches\tdedups\n")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%d\t%.2f\t%.2f\t%d\t%d\t%d\t%d\t%d\n",
			p.SetSize, p.LocalPerSec, p.FabricPerSec, p.LocalColds, p.FabricColds, p.RemoteRoutes, p.Fetches, p.LayerDedups)
	}
	return sb.String()
}
