package experiments

import (
	"fmt"
	"strings"
	"time"

	"seuss/internal/core"
	"seuss/internal/faas"
	"seuss/internal/metrics"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// loadThreads is the load generator's worker-thread count (C), as in
// the paper.
const loadThreads = 32

// steadyWarmup returns how many unmeasured invocations precede the
// measurement window: the paper streams requests "until the measured
// throughput reaches a point of stability". Small sets need roughly
// two passes to build their warm caches; large sets are in steady
// churn immediately.
func steadyWarmup(m int) int {
	w := 4 * m
	if w > 1024 {
		w = 1024
	}
	if w < 512 {
		w = 512
	}
	return w
}

// Figure4Point is one trial of the throughput experiment: a function
// set size and the throughput each backend sustained.
type Figure4Point struct {
	SetSize        int
	SeussPerSec    float64
	LinuxPerSec    float64
	LinuxErrors    int
	SeussColdShare float64 // fraction of requests served cold
}

// Figure4 is the platform-throughput sweep.
type Figure4 struct {
	Points []Figure4Point
	N      int
	C      int
}

// Figure4Config scales the experiment. The paper doubles M from 64 to
// 65536 with 32 worker threads on a continuous stream; we measure N
// requests per trial after warmup (with N ≥ several times the
// steady-state working set this matches the stream's stable point).
type Figure4Config struct {
	// SetSizes lists the M values (default 64…65536 doubling).
	SetSizes []int
	// N is invocations measured per trial (default 1200).
	N int
	// Seed fixes the random send orders.
	Seed int64
}

func (c Figure4Config) withDefaults() Figure4Config {
	if len(c.SetSizes) == 0 {
		for m := 64; m <= 65536; m *= 2 {
			c.SetSizes = append(c.SetSizes, m)
		}
	}
	if c.N == 0 {
		c.N = 1200
	}
	return c
}

// RunFigure4 executes the sweep: each trial runs on a fresh platform
// deployment, exactly as the paper re-deploys OpenWhisk per trial.
func RunFigure4(cfg Figure4Config) (Figure4, error) {
	cfg = cfg.withDefaults()
	out := Figure4{N: cfg.N, C: loadThreads}
	for _, m := range cfg.SetSizes {
		fns := make([]workload.Spec, m)
		for i := range fns {
			fns[i] = workload.NOPSpec(i)
		}
		trial := workload.Trial{N: cfg.N, Fns: fns, C: loadThreads, Seed: cfg.Seed, Warmup: steadyWarmup(m)}

		// SEUSS backend.
		engS := sim.NewEngine()
		nodeS, err := core.NewNode(engS, core.DefaultConfig())
		if err != nil {
			return out, err
		}
		clusterS := faas.NewCluster(faas.NewSeussBackend(nodeS))
		resS := trial.Run(engS, clusterS)

		// Linux backend ('stemcell' cache disabled for throughput, per §7).
		engL := sim.NewEngine()
		clusterL := faas.NewCluster(faas.NewLinuxBackend(engL, faas.LinuxConfig{Seed: cfg.Seed}))
		resL := trial.Run(engL, clusterL)

		coldShare := 0.0
		if st := nodeS.Stats(); st.Cold+st.Warm+st.Hot > 0 {
			coldShare = float64(st.Cold) / float64(st.Cold+st.Warm+st.Hot)
		}
		out.Points = append(out.Points, Figure4Point{
			SetSize:        m,
			SeussPerSec:    resS.SteadyThroughput(),
			LinuxPerSec:    resL.SteadyThroughput(),
			LinuxErrors:    resL.Errors,
			SeussColdShare: coldShare,
		})
	}
	return out, nil
}

// Render formats the sweep as the Figure 4 series.
func (f Figure4) Render() string {
	tab := metrics.Table{Header: []string{"Set Size (M)", "SEUSS (req/s)", "Linux (req/s)", "SEUSS/Linux", "Linux errors", "SEUSS cold%"}}
	for _, p := range f.Points {
		ratio := 0.0
		if p.LinuxPerSec > 0 {
			ratio = p.SeussPerSec / p.LinuxPerSec
		}
		tab.AddRow(
			fmt.Sprintf("%d", p.SetSize),
			fmt.Sprintf("%.1f", p.SeussPerSec),
			fmt.Sprintf("%.1f", p.LinuxPerSec),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%d", p.LinuxErrors),
			fmt.Sprintf("%.0f%%", p.SeussColdShare*100),
		)
	}
	return fmt.Sprintf("Figure 4: OpenWhisk platform throughput (N=%d, C=%d per trial)\n\n", f.N, f.C) + tab.String()
}

// TSV renders the series as tab-separated values for plotting.
func (f Figure4) TSV() string {
	var sb strings.Builder
	sb.WriteString("set_size\tseuss_rps\tlinux_rps\tlinux_errors\n")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%d\t%.2f\t%.2f\t%d\n", p.SetSize, p.SeussPerSec, p.LinuxPerSec, p.LinuxErrors)
	}
	return sb.String()
}

// Figure5Row is the latency distribution of one backend at one set
// size.
type Figure5Row struct {
	Backend string
	SetSize int
	Summary metrics.Summary
	Errors  int
}

// Figure5 is the end-to-end latency percentile experiment.
type Figure5 struct {
	Rows []Figure5Row
}

// RunFigure5 measures end-to-end request latency distributions at the
// three set sizes of the paper's figure.
func RunFigure5(setSizes []int, n int, seed int64) (Figure5, error) {
	if len(setSizes) == 0 {
		setSizes = []int{64, 2048, 65536}
	}
	var out Figure5
	for _, m := range setSizes {
		fns := make([]workload.Spec, m)
		for i := range fns {
			fns[i] = workload.NOPSpec(i)
		}
		trial := workload.Trial{N: n, Fns: fns, C: loadThreads, Seed: seed, Warmup: steadyWarmup(m)}

		engS := sim.NewEngine()
		nodeS, err := core.NewNode(engS, core.DefaultConfig())
		if err != nil {
			return out, err
		}
		resS := trial.Run(engS, faas.NewCluster(faas.NewSeussBackend(nodeS)))
		out.Rows = append(out.Rows, Figure5Row{Backend: "seuss", SetSize: m, Summary: resS.Summary(), Errors: resS.Errors})

		engL := sim.NewEngine()
		resL := trial.Run(engL, faas.NewCluster(faas.NewLinuxBackend(engL, faas.LinuxConfig{Seed: seed})))
		out.Rows = append(out.Rows, Figure5Row{Backend: "linux", SetSize: m, Summary: resL.Summary(), Errors: resL.Errors})
	}
	return out, nil
}

// Render formats the Figure 5 quantiles.
func (f Figure5) Render() string {
	tab := metrics.Table{Header: []string{"Backend", "M", "p1", "p25", "p50", "p75", "p99", "mean", "errors"}}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
	for _, r := range f.Rows {
		tab.AddRow(r.Backend, fmt.Sprintf("%d", r.SetSize),
			ms(r.Summary.P1), ms(r.Summary.P25), ms(r.Summary.P50),
			ms(r.Summary.P75), ms(r.Summary.P99), ms(r.Summary.Mean),
			fmt.Sprintf("%d", r.Errors))
	}
	return "Figure 5: End-to-end request latency of a NOP function (ms)\n\n" + tab.String()
}

// BurstResult is one backend's outcome in a burst experiment.
type BurstResult struct {
	Backend          string
	Period           time.Duration
	BackgroundCount  int
	BackgroundErrors int
	BurstCount       int
	BurstErrors      int
	BackgroundP99    time.Duration
	BurstP99         time.Duration
	MaxBackgroundGap time.Duration
	Timeline         *metrics.Timeline
}

// FigureBurst is one of Figures 6-8: both backends exposed to the same
// burst schedule.
type FigureBurst struct {
	Period time.Duration
	Seuss  BurstResult
	Linux  BurstResult
}

// BurstConfig parameterizes the burst experiments; zero values take the
// paper's setup.
type BurstConfig struct {
	Period    time.Duration // 32 s, 16 s, or 8 s
	Bursts    int           // default 10
	BurstSize int           // default 128 (not stated in the paper; chosen so the container cache limit is hit around the 5th burst at the 32 s period, as §7 reports)
	Threads   int           // default 128
	BGRate    float64       // default 72 req/s
	Seed      int64
}

func (c BurstConfig) withDefaults() BurstConfig {
	if c.Period == 0 {
		c.Period = 32 * time.Second
	}
	if c.Bursts == 0 {
		c.Bursts = 10
	}
	if c.BurstSize == 0 {
		c.BurstSize = 128
	}
	if c.Threads == 0 {
		c.Threads = 128
	}
	if c.BGRate == 0 {
		c.BGRate = 72
	}
	return c
}

const (
	// burstBGFns is how many IO-bound functions the background stream
	// cycles through.
	burstBGFns = 16
	// burstIOBlock is the external HTTP server's think time: how long
	// each background function blocks.
	burstIOBlock = 250 * time.Millisecond
	// burstCPUms is each burst function's CPU-bound run time.
	burstCPUms = 150
)

// load builds the burst schedule: the background stream at BGRate, and
// Bursts CPU-bound bursts one Period apart.
func (c BurstConfig) load() workload.Burst {
	fns := make([]workload.Spec, burstBGFns)
	for i := range fns {
		fns[i] = workload.IOSpec(fmt.Sprintf("bg%02d/io", i), "http://ext/block", burstIOBlock)
	}
	return workload.Burst{
		Threads:    c.Threads,
		BGFns:      fns,
		BGRate:     c.BGRate,
		BurstEvery: c.Period,
		BurstSize:  c.BurstSize,
		BurstCPUms: burstCPUms,
		Bursts:     c.Bursts,
		Seed:       c.Seed,
	}
}

// seussIONode is a default SEUSS node whose external HTTP server
// blocks burstIOBlock, then replies.
func seussIONode(eng *sim.Engine) (*core.Node, error) {
	cfg := core.DefaultConfig()
	cfg.HTTPHandler = func(url string) (string, time.Duration, error) {
		return "OK", burstIOBlock, nil
	}
	return core.NewNode(eng, cfg)
}

// RunBurst executes one burst experiment (one of Figures 6-8) on both
// backends.
func RunBurst(cfg BurstConfig) (FigureBurst, error) {
	cfg = cfg.withDefaults()
	out := FigureBurst{Period: cfg.Period}

	engS := sim.NewEngine()
	nodeS, err := seussIONode(engS)
	if err != nil {
		return out, err
	}
	clusterS := faas.NewCluster(faas.NewSeussBackend(nodeS))
	// The SEUSS guest blocks inside http.get; the workload Spec's IO
	// field is for the Linux model, so zero it to avoid double counting.
	bS := cfg.load()
	for i := range bS.BGFns {
		bS.BGFns[i].IO = 0
	}
	tlS := bS.Run(engS, clusterS)
	out.Seuss = summarizeBurst("seuss", cfg.Period, tlS)

	// Linux node: stemcell cache 256, as configured for this experiment;
	// the container limit stays at the bridge's 1024-endpoint default,
	// as in the throughput runs.
	engL := sim.NewEngine()
	clusterL := faas.NewCluster(faas.NewLinuxBackend(engL, faas.LinuxConfig{
		Seed:      cfg.Seed,
		Stemcells: 256,
	}))
	tlL := cfg.load().Run(engL, clusterL)
	out.Linux = summarizeBurst("linux", cfg.Period, tlL)
	return out, nil
}

func summarizeBurst(backend string, period time.Duration, tl *metrics.Timeline) BurstResult {
	bg := metrics.Summarize(tl.Latencies("background"))
	bu := metrics.Summarize(tl.Latencies("burst"))
	return BurstResult{
		Backend:          backend,
		Period:           period,
		BackgroundCount:  tl.Count("background"),
		BackgroundErrors: tl.Errors("background"),
		BurstCount:       tl.Count("burst"),
		BurstErrors:      tl.Errors("burst"),
		BackgroundP99:    bg.P99,
		BurstP99:         bu.P99,
		MaxBackgroundGap: tl.MaxGap("background"),
		Timeline:         tl,
	}
}

// Render formats the burst experiment summary.
func (f FigureBurst) Render() string {
	tab := metrics.Table{Header: []string{"Backend", "bg reqs", "bg errors", "bg p99", "max bg gap", "burst reqs", "burst errors", "burst p99"}}
	row := func(r BurstResult) {
		tab.AddRow(r.Backend,
			fmt.Sprintf("%d", r.BackgroundCount), fmt.Sprintf("%d", r.BackgroundErrors),
			r.BackgroundP99.Round(time.Millisecond).String(), r.MaxBackgroundGap.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.BurstCount), fmt.Sprintf("%d", r.BurstErrors),
			r.BurstP99.Round(time.Millisecond).String())
	}
	row(f.Linux)
	row(f.Seuss)
	return fmt.Sprintf("Figures 6-8: request bursts every %v\n\n", f.Period) + tab.String()
}

// TSV renders both timelines as tab-separated scatter data
// (backend, kind, sent_s, latency_ms, error).
func (f FigureBurst) TSV() string {
	var sb strings.Builder
	sb.WriteString("backend\tkind\tsent_s\tlatency_ms\terror\n")
	write := func(backend string, tl *metrics.Timeline) {
		for _, p := range tl.Points {
			e := 0
			if p.Err {
				e = 1
			}
			fmt.Fprintf(&sb, "%s\t%s\t%.3f\t%.3f\t%d\n",
				backend, p.Kind, p.Sent.Seconds(), float64(p.Latency.Microseconds())/1000, e)
		}
	}
	write("linux", f.Linux.Timeline)
	write("seuss", f.Seuss.Timeline)
	return sb.String()
}
