package experiments

import (
	"fmt"
	"time"

	"seuss/internal/faas"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// The paper's custom FaaS load-generation benchmark (§7) pointed at one
// backend: a trial of N invocations over M functions issued by 32
// worker threads, and the burst-resiliency schedule. All latencies are
// virtual time; throughput and percentile output match the quantities
// the paper's figures report.

// NewPlatform assembles the FaaS platform over one compute backend:
// "seuss" is a default node whose external HTTP server blocks
// burstIOBlock, "linux" the container invoker as the burst experiment
// configures it (256 stemcells, the bridge's 1024-endpoint default).
func NewPlatform(eng *sim.Engine, backend string) (*faas.Cluster, error) {
	switch backend {
	case "seuss":
		node, err := seussIONode(eng)
		if err != nil {
			return nil, err
		}
		return faas.NewCluster(faas.NewSeussBackend(node)), nil
	case "linux":
		return faas.NewCluster(faas.NewLinuxBackend(eng, faas.LinuxConfig{Stemcells: 256})), nil
	default:
		return nil, fmt.Errorf("unknown backend %q", backend)
	}
}

// plainText is the Result of the load-generator entries: the summary
// lines themselves.
type plainText string

func (t plainText) Render() string { return string(t) }

func runTrialEntry(p Params) (Result, error) {
	eng := sim.NewEngine()
	plat, err := NewPlatform(eng, p.Backend)
	if err != nil {
		return nil, err
	}
	fns := make([]workload.Spec, p.M)
	for i := range fns {
		fns[i] = workload.NOPSpec(i)
	}
	const warmup = 512 // unmeasured invocations before the measurement window
	res := workload.Trial{N: p.N, Fns: fns, C: loadThreads, Seed: p.Seed, Warmup: warmup}.Run(eng, plat)
	return plainText(fmt.Sprintf("backend=%s N=%d M=%d C=%d\n"+
		"completed=%d errors=%d elapsed=%v throughput=%.1f req/s\n"+
		"latency: %s",
		p.Backend, p.N, p.M, loadThreads,
		res.Completed, res.Errors, res.Elapsed.Round(time.Millisecond), res.Throughput(),
		res.Summary())), nil
}

func runBurstEntry(p Params) (Result, error) {
	eng := sim.NewEngine()
	plat, err := NewPlatform(eng, p.Backend)
	if err != nil {
		return nil, err
	}
	cfg := BurstConfig{Seed: p.Seed}.withDefaults()
	r := summarizeBurst(p.Backend, cfg.Period, cfg.load().Run(eng, plat))
	ms := time.Millisecond
	return plainText(fmt.Sprintf("backend=%s period=%v bursts=%d size=%d\n"+
		"background: %d requests, %d errors, p99=%v, max gap=%v\n"+
		"burst:      %d requests, %d errors, p99=%v",
		p.Backend, cfg.Period, cfg.Bursts, cfg.BurstSize,
		r.BackgroundCount, r.BackgroundErrors, r.BackgroundP99.Round(ms), r.MaxBackgroundGap.Round(ms),
		r.BurstCount, r.BurstErrors, r.BurstP99.Round(ms))), nil
}
