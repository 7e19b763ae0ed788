package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// spreadMode runs every workload n times, each run in its own process
// (so peak RSS and GC state start fresh, as they do under the driver)
// and on its own seed, then prints per metric × workload the median,
// the quartiles, the interquartile spread as a share of the median and
// the largest relative deviation. It fails if any end-to-end metric
// spreads wider than its bound or any run was not correct.
func spreadMode(n int, seed int64, seconds float64, trace bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	bad := 0
	for i := 0; i < n; i++ {
		for _, w := range workloadNames() {
			args := []string{"-workload", w, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[trace]}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			start := time.Now()
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s: %v\n%s", i+1, w, err, out)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res jsonResult
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s printed no result: %v\n", i+1, w, err)
				return 1
			}
			if n == 1 || !res.Correct {
				os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
				fmt.Println()
			}
			if !res.Correct {
				bad++
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %-16s seed %d: correct=%v failed=%d/%d, %.1f s wall\n",
				i+1, n, w, seed+int64(i), res.Correct, res.Failed, res.Attempted, time.Since(start).Seconds())
		}
	}
	if n == 1 {
		if bad > 0 {
			return 1
		}
		return 0
	}

	over := 0
	fmt.Printf("spread over %d runs per workload, seeds %d..%d, --seconds %g\n", n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-16s %-28s %-6s %12s %12s %12s %8s %8s %-9s %s\n", "workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "maxdev", "bound", "values, in run order")
	for _, w := range workloadNames() {
		for _, m := range specs {
			xs := values[w][m.Name]
			q1, q2, q3 := quartiles(xs)
			sp, dev := spreadShare(xs), maxRelDev(xs)
			verdict := ""
			if m.Bound > 0 {
				verdict = strconv.FormatFloat(m.Bound, 'g', -1, 64)
				if sp > m.Bound {
					verdict += " OVER"
					over++
				}
			}
			fmt.Printf("%-16s %-28s %-6s %12.4f %12.4f %12.4f %7.1f%% %7.1f%% %-9s %.4g\n",
				w, m.Name, m.Unit, q2, q1, q3, sp*100, dev*100, verdict, xs)
		}
	}
	switch {
	case bad > 0:
		fmt.Printf("FAIL: %d runs were not correct\n", bad)
		return 1
	case over > 0:
		fmt.Printf("FAIL: %d end-to-end metric × workload pairs spread wider than their bound\n", over)
		return 1
	}
	fmt.Println("ok: every end-to-end metric within its bound on every workload, error_share 0 on every run")
	return 0
}
