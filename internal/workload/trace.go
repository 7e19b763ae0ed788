package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"seuss/internal/sim"
)

// This file is the open-loop companion to Trial's closed loop: a
// trace-driven generator where each function key has its own arrival
// process (Poisson, lognormal, or one-shot) and invocations are issued
// at their scheduled instants regardless of how fast earlier ones
// complete — the arrival model of production serverless traffic, and
// the load shape lifecycle policies are measured under.

// Arrival processes.
const (
	// ProcPoisson draws exponential gaps around Mean — the bursty,
	// memoryless interactive stream.
	ProcPoisson = "poisson"
	// ProcLognormal draws gaps of median Mean and log-stddev Sigma —
	// concentrated near-periodic traffic (crons, batch ticks).
	ProcLognormal = "lognormal"
	// ProcOnce fires exactly one arrival, uniform in [0, Mean) — the
	// long tail of keys that are invoked and never seen again.
	ProcOnce = "once"
)

// TraceKey is one function and its arrival process.
type TraceKey struct {
	Spec    Spec
	Process string        // ProcPoisson, ProcLognormal, or ProcOnce
	Mean    time.Duration // poisson: mean gap; lognormal: median gap; once: arrival window
	Sigma   float64       // lognormal log-stddev (ignored otherwise)
}

// Trace is an open-loop, trace-driven load description over M keys.
// The same Seed always yields the same arrival schedule.
type Trace struct {
	Keys    []TraceKey
	Horizon time.Duration // generate arrivals in [0, Horizon)
	Seed    int64
}

// arrival is one scheduled invocation: Keys[Key] fires at At.
type arrival struct {
	At  time.Duration
	Key int
}

// TracePoint is one completed invocation.
type TracePoint struct {
	Key     string
	Sent    time.Duration // scheduled arrival instant (virtual)
	Latency time.Duration
	Path    string // serving path as reported by the invoker
	Err     bool
}

// TraceResult aggregates a trace run. Points is in completion order;
// callers window on Sent to exclude warmup.
type TraceResult struct {
	Arrivals  int
	Completed int
	Errors    int
	Points    []TracePoint
}

// pathInvoker is an Invoker that also reports which taxonomy path
// (cold/warm/hot/lukewarm) served each invocation — the trace
// experiments' primary observable.
type pathInvoker interface {
	InvokePath(p *sim.Proc, spec Spec, args string) (path string, err error)
}

// arrivals expands the trace into its deterministic arrival schedule,
// sorted by instant (ties broken by key index). Each key draws from
// its own seeded stream, so adding or removing keys never perturbs the
// others' schedules.
func (t Trace) arrivals() []arrival {
	var out []arrival
	for ki, k := range t.Keys {
		kr := sim.NewRNG(t.Seed + int64(ki+1)*0x9E3779B9)
		switch k.Process {
		case ProcOnce:
			window := k.Mean
			if window <= 0 {
				window = t.Horizon
			}
			at := time.Duration(kr.Float64() * float64(window))
			if at < t.Horizon {
				out = append(out, arrival{At: at, Key: ki})
			}
		case ProcLognormal:
			// Random phase so the periodic keys don't all tick in
			// lockstep, then lognormal gaps.
			at := time.Duration(kr.Float64() * float64(k.Mean))
			for at < t.Horizon {
				out = append(out, arrival{At: at, Key: ki})
				at += lognormalGap(kr, k.Mean, k.Sigma)
			}
		default: // ProcPoisson
			at := kr.Exp(k.Mean)
			for at < t.Horizon {
				out = append(out, arrival{At: at, Key: ki})
				at += kr.Exp(k.Mean)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Run issues the trace's arrivals open-loop against inv: a generator
// proc sleeps to each scheduled instant and forks the invocation into
// its own proc, so slow serves never delay later arrivals. Run drives
// eng.Run itself and returns once every in-flight invocation has
// completed.
func (t Trace) Run(eng *sim.Engine, inv pathInvoker) TraceResult {
	arrivals := t.arrivals()
	res := TraceResult{Arrivals: len(arrivals)}
	eng.Go("trace-arrivals", func(p *sim.Proc) {
		for _, a := range arrivals {
			if wait := a.At - time.Duration(p.Now()); wait > 0 {
				p.Sleep(wait)
			}
			a := a
			k := t.Keys[a.Key]
			eng.Go("trace-invoke", func(p *sim.Proc) {
				start := time.Duration(p.Now())
				path, err := inv.InvokePath(p, k.Spec, "{}")
				pt := TracePoint{
					Key:     k.Spec.Key,
					Sent:    a.At,
					Latency: time.Duration(p.Now()) - start,
					Path:    path,
					Err:     err != nil,
				}
				if err != nil {
					res.Errors++
				} else {
					res.Completed++
				}
				res.Points = append(res.Points, pt)
			})
		}
	})
	eng.Run()
	return res
}

// lognormalGap draws median * exp(sigma * Z) with Z standard normal
// (Box-Muller over the trace RNG — sim.RNG has no normal variate).
func lognormalGap(r *sim.RNG, median time.Duration, sigma float64) time.Duration {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	d := time.Duration(float64(median) * math.Exp(sigma*z))
	if d < time.Millisecond {
		d = time.Millisecond // keep pathological tails from zero-gap loops
	}
	return d
}

// ParseTraceCSV reads trace keys from CSV with columns
//
//	key,process,mean_ms,sigma[,cpu_ms]
//
// process is poisson|lognormal|once; mean_ms is the process's Mean in
// milliseconds; sigma is the lognormal log-stddev (0 for the others);
// the optional cpu_ms makes the function CPU-bound instead of NOP.
// Lines starting with '#' and a leading "key,..." header are skipped —
// the format real Azure-style trace exports flatten into.
func ParseTraceCSV(r io.Reader) ([]TraceKey, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = -1
	var keys []TraceKey
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace csv: %w", err)
		}
		line++
		if line == 1 && len(rec) > 0 && strings.EqualFold(strings.TrimSpace(rec[0]), "key") {
			continue
		}
		if len(rec) < 3 {
			return nil, fmt.Errorf("trace csv record %d: want key,process,mean_ms[,sigma[,cpu_ms]], got %d fields", line, len(rec))
		}
		key := strings.TrimSpace(rec[0])
		proc := strings.ToLower(strings.TrimSpace(rec[1]))
		switch proc {
		case ProcPoisson, ProcLognormal, ProcOnce:
		default:
			return nil, fmt.Errorf("trace csv record %d: unknown process %q", line, proc)
		}
		meanMS, err := strconv.ParseFloat(strings.TrimSpace(rec[2]), 64)
		if err != nil || meanMS <= 0 {
			return nil, fmt.Errorf("trace csv record %d: bad mean_ms %q", line, rec[2])
		}
		var sigma float64
		if len(rec) > 3 && strings.TrimSpace(rec[3]) != "" {
			sigma, err = strconv.ParseFloat(strings.TrimSpace(rec[3]), 64)
			if err != nil || sigma < 0 {
				return nil, fmt.Errorf("trace csv record %d: bad sigma %q", line, rec[3])
			}
		}
		spec := Spec{Key: key, Source: NOPSource}
		if len(rec) > 4 && strings.TrimSpace(rec[4]) != "" {
			cpuMS, err := strconv.Atoi(strings.TrimSpace(rec[4]))
			if err != nil || cpuMS < 0 {
				return nil, fmt.Errorf("trace csv record %d: bad cpu_ms %q", line, rec[4])
			}
			if cpuMS > 0 {
				spec = CPUSpec(key, cpuMS)
			}
		}
		keys = append(keys, TraceKey{
			Spec:    spec,
			Process: proc,
			Mean:    time.Duration(meanMS * float64(time.Millisecond)),
			Sigma:   sigma,
		})
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("trace csv: no keys")
	}
	return keys, nil
}
