// Command seuss-experiments is the virtual-time harness: it regenerates
// the tables and figures of the SEUSS paper's evaluation (§7), writes
// both human-readable tables and TSV series for plotting, and points
// the paper's load generator at one backend for profiling.
//
// Usage:
//
//	seuss-experiments [-run all|fig1|table1|table2|table3|fig4|fabric|failover|policy|fig5|fig6|fig7|fig8|trial|burst]
//	                  [-out DIR] [-quick] [-seed N] [-trace-file CSV]
//	                  [-backend seuss|linux] [-n N] [-m M]
//	                  [-cpuprofile FILE] [-memprofile FILE]
//
// The experiments are the entries of internal/experiments.Registry;
// -h lists them with what -run all includes and what results/ pins.
// -quick shrinks iteration counts and sweep ranges for a fast pass;
// the default sizes reproduce the full experiments (minutes of wall
// time for the figure sweeps). -trace-file replaces the policy
// experiment's synthetic key population with one parsed from a CSV of
// `key,process,mean_ms[,sigma[,cpu_ms]]` rows. -run trial is one trial
// of -n invocations over -m functions from 32 worker threads against
// -backend, and -run burst the 32 s burst schedule against it; neither
// is part of -run all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"seuss/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "seuss-experiments:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a command line that names no experiment to run; main
// exits 2 on it.
var errUsage = errors.New("bad command line")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("seuss-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("run", "all", "experiment to run: all, or one of "+strings.Join(experiments.Names(), ", "))
	out := fs.String("out", "", "directory for TSV outputs (default: none written)")
	var p experiments.Params
	fs.BoolVar(&p.Quick, "quick", false, "reduced iteration counts for a fast pass")
	fs.Int64Var(&p.Seed, "seed", 1, "experiment seed (send orders are pre-computed per seed)")
	fs.StringVar(&p.TraceFile, "trace-file", "", "CSV trace for the policy experiment (key,process,mean_ms[,sigma[,cpu_ms]])")
	fs.StringVar(&p.Backend, "backend", "seuss", "trial, burst: seuss or linux")
	fs.IntVar(&p.N, "n", 2000, "trial: invocation count (N)")
	fs.IntVar(&p.M, "m", 64, "trial: function set size (M)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-run) to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: seuss-experiments [flags]")
		fs.PrintDefaults()
		fmt.Fprint(stderr, "\n", listing())
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	selected, err := experiments.Select(*name)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	for _, e := range selected {
		res, err := e.Run(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Render())
		if *out == "" || e.TSV == "" {
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, e.TSV)
		tsv := res.(interface{ TSV() string }).TSV()
		if err := os.WriteFile(path, []byte(tsv), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	if *memprofile == "" {
		return nil
	}
	f, err := os.Create(*memprofile)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// listing renders the registry for -h, one line per experiment: its
// name, whether -run all includes it, and the file under results/ that
// scripts/results_drift.sh (which reads these lines) holds it against.
func listing() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s%-10s%s\n", "name", "-run all", "pinned by")
	for _, e := range experiments.Registry {
		all, pinned := "-", "-"
		if e.All {
			all = "all"
		}
		if f := e.PinnedFile(); f != "" {
			pinned = "results/" + f
		}
		fmt.Fprintf(&sb, "%-10s%-10s%s\n", e.Name, all, pinned)
	}
	return sb.String()
}
