package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"seuss/internal/core"
	"seuss/internal/metrics"
	"seuss/internal/policy"
	"seuss/internal/sim"
	"seuss/internal/snapstore"
	"seuss/internal/workload"
)

// The lifecycle-policy experiment: one open-loop trace (a hot Poisson
// band, a near-periodic lognormal band, and a long tail of one-shot
// keys) replayed against a node under each lifecycle policy. What a
// keep-alive policy trades is latency against resident RAM: NoKeepAlive
// frees memory instantly and pays a lukewarm restore per recurrence,
// FixedKeepAlive holds everything for one window regardless of whether
// it will recur, and Hybrid sizes each key's window from its own
// inter-arrival history — the experiment measures both sides of the
// trade for all three.

// PolicyArm is one policy's measured outcome over the trace.
type PolicyArm struct {
	Policy   string
	Arrivals int // total scheduled arrivals
	Measured int // completions inside the measurement window
	Cold     int
	Lukewarm int
	Warm     int
	Hot      int
	P50      time.Duration
	P99      time.Duration
	P999     time.Duration
	WarmHit  float64 // (hot+warm) / measured
	RAMGBs   float64 // resident-RAM integral over the window, GB·s
	Expired  int64   // keep-alive expirations (UCs + lineages)
	Prewarms int64   // predicted promotions
	Misses   int64   // predictions whose lineage left the tier
}

// FigurePolicy is the full policy comparison.
type FigurePolicy struct {
	Arms    []PolicyArm
	Keys    int
	Horizon time.Duration
	Warmup  time.Duration
}

// The trace's band shapes and the policy clock; PolicyConfig scales
// only how many keys each band has and how long the trace runs.
const (
	// policyHotMean is the hot band's Poisson mean — always inside any
	// sane keep-alive window.
	policyHotMean = 15 * time.Second
	// policyPeriodicMean and policyPeriodicSigma are the periodic
	// band's lognormal median and log-stddev: the band where the
	// policies separate — longer than Fixed's window, predictable
	// enough for Hybrid to prewarm.
	policyPeriodicMean  = 4 * time.Minute
	policyPeriodicSigma = 0.12
	// policyTick is the reaper period, also the RAM sampling period.
	policyTick = 15 * time.Second
	// policyFixedWindow is the FixedKeepAlive arm's window.
	policyFixedWindow = 2 * time.Minute
)

// PolicyConfig scales the experiment.
type PolicyConfig struct {
	// HotKeys invoke Poisson with mean policyHotMean (default 200
	// keys).
	HotKeys int
	// PeriodicKeys invoke near-periodically (default 800 keys).
	PeriodicKeys int
	// OnceKeys fire exactly once during warmup and never again — dead
	// weight every keep-alive window holds for nothing (default 9000).
	OnceKeys int
	// Horizon is the trace length; completions with Sent >= Warmup are
	// measured (defaults 26 min / 14 min). The warmup must cover
	// Hybrid's learning phase — MinSamples gaps take three arrivals,
	// about three periods plus phase slack — so the measurement window
	// compares steady-state behavior, not cold statistics.
	Horizon time.Duration
	Warmup  time.Duration
	// Keys overrides the synthetic bands entirely (e.g. from
	// workload.ParseTraceCSV); the *Keys counts are then ignored.
	Keys []workload.TraceKey
	// Seed fixes the arrival schedule (same schedule for every arm).
	Seed int64
	// SnapDir roots each arm's disk tier; empty uses a temp directory.
	SnapDir string
}

func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.HotKeys == 0 {
		c.HotKeys = 200
	}
	if c.PeriodicKeys == 0 {
		c.PeriodicKeys = 800
	}
	if c.OnceKeys == 0 {
		c.OnceKeys = 9000
	}
	if c.Horizon == 0 {
		c.Horizon = 26 * time.Minute
	}
	if c.Warmup == 0 {
		c.Warmup = 14 * time.Minute
	}
	return c
}

// traceKeys builds the synthetic three-band key population.
func (c PolicyConfig) traceKeys() []workload.TraceKey {
	if len(c.Keys) > 0 {
		return c.Keys
	}
	keys := make([]workload.TraceKey, 0, c.HotKeys+c.PeriodicKeys+c.OnceKeys)
	for i := 0; i < c.HotKeys; i++ {
		keys = append(keys, workload.TraceKey{
			Spec:    workload.Spec{Key: fmt.Sprintf("hot/fn%d", i), Source: workload.NOPSource},
			Process: workload.ProcPoisson,
			Mean:    policyHotMean,
		})
	}
	for i := 0; i < c.PeriodicKeys; i++ {
		keys = append(keys, workload.TraceKey{
			Spec:    workload.Spec{Key: fmt.Sprintf("cron/fn%d", i), Source: workload.NOPSource},
			Process: workload.ProcLognormal,
			Mean:    policyPeriodicMean,
			Sigma:   policyPeriodicSigma,
		})
	}
	for i := 0; i < c.OnceKeys; i++ {
		keys = append(keys, workload.TraceKey{
			Spec:    workload.Spec{Key: fmt.Sprintf("once/fn%d", i), Source: workload.NOPSource},
			Process: workload.ProcOnce,
			Mean:    c.Warmup, // fire during warmup; never recur
		})
	}
	return keys
}

// nodeInvoker adapts a core node to the trace generator.
type nodeInvoker struct{ n *core.Node }

func (ni nodeInvoker) InvokePath(p *sim.Proc, spec workload.Spec, args string) (string, error) {
	res, err := ni.n.Invoke(p, core.Request{Key: spec.Key, Source: spec.Source, Args: args})
	if err != nil {
		return "", err
	}
	return res.Path.String(), nil
}

// RunPolicy replays the same trace against each policy arm on a fresh
// node with a fresh disk tier.
func RunPolicy(cfg PolicyConfig) (FigurePolicy, error) {
	cfg = cfg.withDefaults()
	if cfg.SnapDir == "" {
		dir, err := os.MkdirTemp("", "seuss-policy")
		if err != nil {
			return FigurePolicy{}, err
		}
		defer os.RemoveAll(dir)
		cfg.SnapDir = dir
	}
	keys := cfg.traceKeys()
	tr := workload.Trace{Keys: keys, Horizon: cfg.Horizon, Seed: cfg.Seed}
	out := FigurePolicy{Keys: len(keys), Horizon: cfg.Horizon, Warmup: cfg.Warmup}

	arms := []policy.Policy{
		policy.NoKeepAlive{},
		policy.FixedKeepAlive{Window: policyFixedWindow},
		policy.NewHybrid(),
	}
	for i, pol := range arms {
		arm, err := runPolicyArm(cfg, tr, pol, fmt.Sprintf("%s/arm%d", cfg.SnapDir, i))
		if err != nil {
			return out, err
		}
		out.Arms = append(out.Arms, arm)
	}
	return out, nil
}

// runPolicyArm runs one policy over the trace. The reaper ticks and
// RAM sampling ride one bounded proc on the trace's engine: it stops
// one tick past the horizon, so eng.Run still terminates.
func runPolicyArm(cfg PolicyConfig, tr workload.Trace, pol policy.Policy, dir string) (PolicyArm, error) {
	store, err := snapstore.Open(dir, -1)
	if err != nil {
		return PolicyArm{}, err
	}
	eng := sim.NewEngine()
	nc := core.DefaultConfig()
	nc.Seed = cfg.Seed
	nc.Policy = pol
	nc.SnapStore = store
	node, err := core.NewNode(eng, nc)
	if err != nil {
		return PolicyArm{}, err
	}

	// RAM accounting integrates BytesInUse over the measurement window
	// by sampling at every reaper tick (rectangle rule at the tick
	// period — the same observable for every arm, so the comparison is
	// exact even if the absolute integral is quantized).
	var ramByteSeconds float64
	eng.Go("policy-reaper", func(p *sim.Proc) {
		for {
			p.Sleep(policyTick)
			now := time.Duration(p.Now())
			if now > cfg.Horizon+policyTick {
				return
			}
			node.PolicyTick(p)
			if now >= cfg.Warmup && now <= cfg.Horizon {
				ramByteSeconds += float64(node.MemStats().BytesInUse) * policyTick.Seconds()
			}
		}
	})
	res := tr.Run(eng, nodeInvoker{n: node})
	st := node.Stats()

	arm := PolicyArm{
		Policy:   pol.Name(),
		Arrivals: res.Arrivals,
		RAMGBs:   ramByteSeconds / 1e9,
		Expired:  st.PolicyExpirations,
		Prewarms: st.PolicyPrewarms,
		Misses:   st.PolicyPrewarmMisses,
	}
	var lat []time.Duration
	for _, pt := range res.Points {
		if pt.Err || pt.Sent < cfg.Warmup {
			continue
		}
		arm.Measured++
		lat = append(lat, pt.Latency)
		switch pt.Path {
		case core.PathCold.String():
			arm.Cold++
		case core.PathLukewarm.String():
			arm.Lukewarm++
		case core.PathWarm.String():
			arm.Warm++
		case core.PathHot.String():
			arm.Hot++
		}
	}
	if arm.Measured > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		arm.P50 = lat[len(lat)*50/100]
		arm.P99 = lat[len(lat)*99/100]
		arm.P999 = lat[min(len(lat)*999/1000, len(lat)-1)]
		arm.WarmHit = float64(arm.Hot+arm.Warm) / float64(arm.Measured)
	}
	return arm, nil
}

// Render formats the comparison.
func (f FigurePolicy) Render() string {
	tab := metrics.Table{Header: []string{
		"policy", "measured", "cold", "lukewarm", "warm", "hot",
		"p50", "p99", "p99.9", "warm-hit", "RAM GB·s", "expired", "prewarms",
	}}
	for _, a := range f.Arms {
		tab.AddRow(
			a.Policy,
			fmt.Sprintf("%d", a.Measured),
			fmt.Sprintf("%d", a.Cold),
			fmt.Sprintf("%d", a.Lukewarm),
			fmt.Sprintf("%d", a.Warm),
			fmt.Sprintf("%d", a.Hot),
			a.P50.String(),
			a.P99.String(),
			a.P999.String(),
			fmt.Sprintf("%.3f", a.WarmHit),
			fmt.Sprintf("%.2f", a.RAMGBs),
			fmt.Sprintf("%d", a.Expired),
			fmt.Sprintf("%d", a.Prewarms),
		)
	}
	return fmt.Sprintf(
		"Lifecycle policies: %d keys, %v horizon (%v warmup), open-loop\n\n",
		f.Keys, f.Horizon, f.Warmup) + tab.String()
}

// TSV renders the comparison for plotting and the results gate.
func (f FigurePolicy) TSV() string {
	var sb strings.Builder
	sb.WriteString("policy\tarrivals\tmeasured\tcold\tlukewarm\twarm\thot\tp50_us\tp99_us\tp999_us\twarm_hit\tram_gb_s\texpired\tprewarms\tprewarm_misses\n")
	for _, a := range f.Arms {
		fmt.Fprintf(&sb, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.3f\t%d\t%d\t%d\n",
			a.Policy, a.Arrivals, a.Measured, a.Cold, a.Lukewarm, a.Warm, a.Hot,
			a.P50.Microseconds(), a.P99.Microseconds(), a.P999.Microseconds(),
			a.WarmHit, a.RAMGBs, a.Expired, a.Prewarms, a.Misses)
	}
	return sb.String()
}
