// Command bench is the repository's benchmark: it builds cmd/seuss-node
// from the working tree, drives it over loopback HTTP under paced and
// saturating load, runs the paper's virtual-time trial in-process, and —
// in a traced run — times every layer from outside. See README.md.
//
//	sh bench/run.sh --workload hot_steady --seed 1 --seconds 18 --trace 0
//	sh bench/run.sh -spread 5
//	sh bench/run.sh -trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = each once)")
	seed := flag.Int64("seed", 1, "workload seed: fixes key order, arrival gaps and arguments")
	seconds := flag.Float64("seconds", runSeconds, "run length; phase counts are the reference counts times seconds/30")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, the ladder and out/trace.json")
	spread := flag.Int("spread", 0, "run the full set N times on seeds seed..seed+N-1 and judge every end-to-end metric's spread against its bound")
	update := flag.Bool("update-expected", false, "run every workload once and rewrite expected.json from what it reports")
	printManifest := flag.Bool("print-manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	switch {
	case *printManifest:
		out, _ := json.MarshalIndent(benchManifest(), "", "  ")
		fmt.Println(string(out))
		return 0
	case *update:
		return updateExpected(*seed, *seconds)
	case *spread > 0 || *workload == "":
		n := *spread
		if n < 1 {
			n = 1
		}
		return spreadMode(n, *seed, *seconds, *trace != 0)
	}
	if !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	exp, err := loadExpected(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res, err := runOnce(exp, *workload, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	report(os.Stdout, *workload, res)
	fmt.Println(resultLine(res, *trace != 0))
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

func knownWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runOnce builds the node, runs one workload and tears everything down.
func runOnce(exp *expected, workload string, seed int64, seconds float64, trace bool) (*runResult, error) {
	sb, err := newSandbox()
	if err != nil {
		return nil, err
	}
	defer sb.close()
	// A signal must not leave servers or snapshot directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			sb.close()
			os.Exit(130)
		}
	}()

	return runWorkload(sb, exp, workload, seed, seconds, trace)
}

// runWorkload runs one workload against an already built node.
func runWorkload(sb *sandbox, exp *expected, workload string, seed int64, seconds float64, trace bool) (*runResult, error) {
	r := newRun(sb, exp, seed, seconds, trace)
	r.res.notes = append(r.res.notes, fmt.Sprintf("build of cmd/seuss-node: %.2f s (not part of setup_s)", sb.buildS))
	var err error
	switch workload {
	case "hot_steady":
		err = r.hotSteady()
	case "cold_churn":
		err = r.coldChurn()
	case "restart_restore":
		err = r.restartRestore()
	case "sim_trial":
		err = r.simTrial()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if trace {
		if err := r.layers(); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", workload, err)
		}
	}
	return r.res, nil
}

// jsonMetric is one entry of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the one JSON object the driver reads: the
// end-to-end metrics of a timed run, or the per-layer metrics of a
// traced one. A per-layer metric the workload does not reach is 0.
func resultLine(res *runResult, trace bool) string {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := jsonResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range specs {
		out.Metrics[m.Name] = jsonMetric{Value: res.metrics[m.Name], Unit: m.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

// report prints every metric the run produced by name, with its unit
// and the number of samples behind it, and every failed check.
func report(w *os.File, workload string, res *runResult) {
	fmt.Fprintf(w, "== %s: %d requests attempted, %d failed (error_share %.6f)\n",
		workload, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	for _, note := range res.notes {
		fmt.Fprintln(w, "  "+note)
	}
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range group {
			v, ok := res.metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.Name, v, m.Unit, res.samples[m.Name])
		}
	}
	for _, why := range res.reasons {
		fmt.Fprintln(w, "  INVALID: "+why)
	}
}

// updateExpected runs every workload once, accepting whatever virtual
// values it reports, and writes them to expected.json.
func updateExpected(seed int64, seconds float64) int {
	exp, err := loadExpected(true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, w := range workloadNames() {
		res, err := runOnce(exp, w, seed, seconds, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		report(os.Stdout, w, res)
		if res.failed > 0 {
			fmt.Fprintln(os.Stderr, "bench: not updating expected.json from a run that failed its other checks")
			return 1
		}
	}
	if err := exp.save(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("expected.json rewritten")
	return 0
}
