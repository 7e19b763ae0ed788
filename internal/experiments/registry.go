package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"seuss/internal/workload"
)

// Params are the command-line values an experiment may read. Every
// entry reads Seed where it has one and Quick where it has a reduced
// size; the rest belong to the entries named beside them.
type Params struct {
	// Quick shrinks iteration counts and sweep ranges for a fast pass.
	Quick bool
	// Seed fixes the random send orders and arrival schedules.
	Seed int64
	// TraceFile (policy) replaces the synthetic key population with one
	// parsed from a CSV of key,process,mean_ms[,sigma[,cpu_ms]] rows.
	TraceFile string
	// Backend (trial, burst) is the platform under load: seuss or linux.
	Backend string
	// N and M (trial) are the invocation count and function-set size.
	N, M int
}

// Experiment is one entry of the virtual-time harness. The registry is
// the only list of experiments: seuss-experiments' usage text, its -run
// validation and the root package's TestResultsByteIdentical all read it.
type Experiment struct {
	Name string
	// All reports whether -run all includes the entry.
	All bool
	// TSV names the file the entry's series is written to under -out;
	// empty for an entry that renders text only.
	TSV string
	// Pinned reports whether TestResultsByteIdentical holds the entry's
	// output against results/: its series against results/<TSV>, or,
	// for a text-only entry, its rendered text against its share of
	// results/tables.txt.
	Pinned bool
	// Run performs the experiment; the Result of an entry that names a
	// TSV file also has a TSV() string method.
	Run func(Params) (Result, error)
}

// Result is an experiment's outcome, rendered as the text the harness
// prints.
type Result interface{ Render() string }

// PinnedFile is the file under results/ that holds the entry's output,
// or "" for an entry nothing pins.
func (e Experiment) PinnedFile() string {
	switch {
	case !e.Pinned:
		return ""
	case e.TSV != "":
		return e.TSV
	default:
		return "tables.txt"
	}
}

// Registry lists every experiment in the order -run all runs them, which
// is the order of results/tables.txt and results/all_experiments.txt.
var Registry = []Experiment{
	{Name: "fig1", All: true, Pinned: true, Run: func(Params) (Result, error) {
		return runFigure1()
	}},
	{Name: "table1", All: true, Pinned: true, Run: func(p Params) (Result, error) {
		return runTable1(pick(p.Quick, 25, 475))
	}},
	{Name: "table2", All: true, Pinned: true, Run: func(p Params) (Result, error) {
		return runTable2(pick(p.Quick, 10, 100))
	}},
	{Name: "table3", All: true, Pinned: true, Run: func(p Params) (Result, error) {
		return runTable3(pick(p.Quick, 400, 1500))
	}},
	{Name: "fig4", All: true, TSV: "figure4.tsv", Pinned: true, Run: func(p Params) (Result, error) {
		cfg := figure4Config{Seed: p.Seed}
		if p.Quick {
			cfg.SetSizes = []int{64, 256, 1024, 4096, 16384}
			cfg.N = 600
		}
		return runFigure4(cfg)
	}},
	{Name: "fabric", All: true, TSV: "fabric.tsv", Pinned: true, Run: func(p Params) (Result, error) {
		cfg := fabricConfig{Seed: p.Seed}
		if p.Quick {
			cfg.SetSizes = []int{64, 256, 1024}
			cfg.N = 400
		}
		return runFabric(cfg)
	}},
	{Name: "failover", All: true, TSV: "failover.tsv", Pinned: true, Run: func(p Params) (Result, error) {
		cfg := failoverConfig{Seed: p.Seed}
		if p.Quick {
			cfg.N = 300
			cfg.M = 16
		}
		return runFailover(cfg)
	}},
	{Name: "policy", All: true, TSV: "policy.tsv", Pinned: true, Run: runPolicyEntry},
	{Name: "fig5", All: true, Run: func(p Params) (Result, error) {
		return runFigure5(nil, pick(p.Quick, 400, 1000), p.Seed)
	}},
	// fig6's 1.8 MB series is not committed, so nothing pins it.
	{Name: "fig6", All: true, TSV: "fig6.tsv", Run: burstEntry(32 * time.Second)},
	{Name: "fig7", All: true, TSV: "fig7.tsv", Pinned: true, Run: burstEntry(16 * time.Second)},
	{Name: "fig8", All: true, TSV: "fig8.tsv", Pinned: true, Run: burstEntry(8 * time.Second)},
	// The paper's load generator pointed at one backend, for profiling
	// and one-off questions; the figures above are its sweeps.
	{Name: "trial", Run: runTrialEntry},
	{Name: "burst", Run: runBurstEntry},
}

// Select resolves a -run value: "all" is every entry marked All, any
// other value must name one entry.
func Select(run string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range Registry {
		if run == e.Name || (run == "all" && e.All) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q: want all or one of %s", run, strings.Join(Names(), ", "))
	}
	return out, nil
}

// Names lists the registry's entry names in order.
func Names() []string {
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
	}
	return names
}

func pick(quick bool, reduced, full int) int {
	if quick {
		return reduced
	}
	return full
}

func burstEntry(period time.Duration) func(Params) (Result, error) {
	return func(p Params) (Result, error) {
		cfg := burstConfig{Period: period, Seed: p.Seed}
		if p.Quick {
			cfg.Bursts = 5
			cfg.Threads = 64
		}
		return runBurst(cfg)
	}
}

func runPolicyEntry(p Params) (Result, error) {
	cfg := policyConfig{Seed: p.Seed}
	if p.Quick {
		cfg.HotKeys = 20
		cfg.PeriodicKeys = 60
		cfg.OnceKeys = 200
	}
	if p.TraceFile != "" {
		f, err := os.Open(p.TraceFile)
		if err != nil {
			return nil, err
		}
		keys, err := workload.ParseTraceCSV(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		cfg.Keys = keys
	}
	return runPolicy(cfg)
}
