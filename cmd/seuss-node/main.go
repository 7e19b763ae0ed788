// Command seuss-node runs a SEUSS compute node behind a real HTTP
// endpoint — a demonstration that the library is a working function
// platform, not only an experiment harness.
//
//	seuss-node [-addr :8080] [-shards N] [-no-ao] [-no-steal]
//	           [-deadline 0] [-fault-seed 0] [-fault-rate 0]
//	           [-snapdir DIR] [-snap-disk-cap BYTES] [-no-prewarm]
//	           [-policy none|fixed|hybrid] [-keepalive 10m]
//	           [-policy-tick 30s] [-pprof localhost:6060]
//
// The node is a sharded pool: N shared-nothing compute shards (default:
// one per CPU), each hydrated from a single encoded base-runtime
// snapshot, behind one front door. Requests route to shards by
// function-key hash; HTTP requests are served concurrently with no
// global lock — the old "simulation is single-threaded by design" mutex
// is gone, replaced by per-shard goroutine ownership.
//
// Invoke a function:
//
//	curl -s localhost:8080/invoke -d '{
//	  "key":  "alice/hello",
//	  "source": "function main(args) { return {msg: \"hello \" + args.name}; }",
//	  "args": {"name": "world"}
//	}'
//
// The response carries the driver's output plus a process-unique
// request ID, the path taken (cold, warm, hot, lukewarm), the serving
// shard, and the shard-side virtual latency.
//
// -snapdir enables the on-disk snapshot tier: evicted snapshot stacks
// demote to DIR instead of being destroyed, later invocations restore
// them via the lukewarm path, a graceful shutdown flushes every
// resident function snapshot to DIR, and the next boot with the same
// -snapdir prewarms the hottest lineages back into memory — so a
// restarted node answers its first requests warm, not cold.
// -snap-disk-cap bounds the tier in bytes (LRU eviction; -1 =
// unlimited, 0 = reject all writes).
// GET /stats reports pool-aggregated caches and counters (each shard's
// contribution snapshotted between invocations, never mid-flight),
// including the robustness ledger — breaker trips, requeues, UC
// crashes, pressure degradations. GET /metrics serves the same data as
// Prometheus text exposition — invocation-latency histograms split by
// cold/warm/hot, cache hit/miss counters, breaker transitions, trace
// drop accounting — read from lock-free per-shard recorders (a scrape
// never waits behind a busy shard). GET /healthz reports liveness plus
// every shard's circuit-breaker state ("ok" when all breakers are
// closed, "degraded" otherwise). GET /trace exports the event timeline
// as Chrome trace-event JSON; /trace?follow=1 streams new events live
// as chunked JSONL. Errors are JSON on every endpoint.
//
// The server shuts down gracefully: SIGINT/SIGTERM stop the listener,
// drain in-flight invocations (bounded by a 30 s grace period), and
// only then stop the shard goroutines. Read/write/idle timeouts bound
// every connection so a stuck client cannot pin a handler forever.
//
// -policy attaches a lifecycle policy (DESIGN.md §15): "none" scales
// every function to zero as soon as the reaper sees it idle, "fixed"
// gives every function the -keepalive window (default 10m), "hybrid"
// learns per-function windows from inter-arrival histograms and
// prewarms periodic functions ahead of their predicted next arrival
// (requires -snapdir for scale-to-zero demotion to survive). A
// wall-clock ticker fires every -policy-tick, advancing each shard's
// virtual clock by the tick period and running one reaper pass. With
// no -policy, idle state is kept until memory pressure evicts it —
// the pre-policy behavior.
//
// -fault-seed and -fault-rate enable the deterministic fault injector
// on every shard (see internal/fault): the same seed replays the same
// fault sequence, which is how the CI fault matrix exercises the
// containment machinery against real HTTP traffic.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"seuss"
)

type server struct {
	pool   *seuss.NodePool
	tracer *seuss.Trace
}

type invokeRequest struct {
	Key     string          `json:"key"`
	Source  string          `json:"source"`
	Args    json.RawMessage `json:"args"`
	Runtime string          `json:"runtime,omitempty"`
}

type invokeResponse struct {
	RequestID uint64          `json:"request_id"`
	Path      string          `json:"path"`
	Shard     int             `json:"shard"`
	Stolen    bool            `json:"stolen,omitempty"`
	LatencyMS float64         `json:"latency_ms"`
	Output    json.RawMessage `json:"output"`
}

// writeJSON emits a JSON response body. The body is rendered before
// the status is written, so a value that does not render (a guest reply
// that is not JSON) answers 500 with the error envelope, never the
// intended status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "reply does not render as JSON: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// writeError emits the uniform JSON error envelope every endpoint uses.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// requireMethod enforces the endpoint's HTTP method, answering with a
// JSON 405 otherwise.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, method+" only")
		return false
	}
	return true
}

// maxInvokeBody bounds an /invoke request body: function source plus
// arguments, far above anything a guest program needs.
const maxInvokeBody = 1 << 20

func (s *server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req invokeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInvokeBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request: "+err.Error())
		return
	}
	if req.Key == "" || req.Source == "" {
		writeError(w, http.StatusBadRequest, "key and source are required")
		return
	}
	args := "{}"
	if len(req.Args) > 0 {
		args = string(req.Args)
	}

	// No lock: the pool is safe for concurrent use, and each request
	// runs on whichever shard owns (or steals) its key.
	inv, err := s.pool.InvokeRuntime(req.Runtime, req.Key, req.Source, args)
	if errors.Is(err, seuss.ErrOverloaded) {
		// Shed, not failed: the shard queue stayed full past the pool's
		// admission deadline. Tell the client to come back after it, in
		// the header's whole seconds.
		retryAfter := int(math.Ceil(seuss.AdmitDeadline.Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"error":       "overloaded: " + err.Error(),
			"retry_after": retryAfter,
		})
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "invocation failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, invokeResponse{
		RequestID: inv.RequestID,
		Path:      inv.Path,
		Shard:     inv.Shard,
		Stolen:    inv.Stolen,
		LatencyMS: float64(inv.Latency.Microseconds()) / 1000,
		Output:    json.RawMessage(inv.Output),
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	st, err := s.pool.Stats()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "stats: "+err.Error())
		return
	}
	shards := make([]map[string]interface{}, 0, len(st.Shards))
	for _, ss := range st.Shards {
		shards = append(shards, map[string]interface{}{
			"shard":            ss.Shard,
			"virtual_clock":    ss.Clock.String(),
			"cold":             ss.Node.Cold,
			"warm":             ss.Node.Warm,
			"hot":              ss.Node.Hot,
			"lukewarm":         ss.Node.Lukewarm,
			"cached_snapshots": ss.CachedSnapshots,
			"idle_ucs":         ss.IdleUCs,
			"memory_used_mb":   float64(ss.Mem.BytesInUse) / 1e6,
		})
	}
	body := map[string]interface{}{
		"shards":             s.pool.Shards(),
		"cold":               st.Cold,
		"warm":               st.Warm,
		"hot":                st.Hot,
		"lukewarm":           st.Lukewarm,
		"errors":             st.Errors,
		"stolen":             st.Stolen,
		"cached_snapshots":   st.CachedSnapshots,
		"idle_ucs":           st.IdleUCs,
		"ucs_deployed":       st.UCsDeployed,
		"ucs_reclaimed":      st.UCsReclaimed,
		"snapshots_captured": st.SnapshotsCaptured,
		"snapshots_evicted":  st.SnapshotsEvicted,
		"memory_used_mb":     float64(st.MemoryUsedBytes) / 1e6,
		"per_shard":          shards,
		"breakers":           st.Breakers,
		"robustness": map[string]int64{
			"breaker_trips":               st.BreakerTrips,
			"rerouted":                    st.Rerouted,
			"requeued":                    st.Requeued,
			"stalls":                      st.Stalls,
			"uc_crashes":                  st.UCCrashes,
			"deadlines_exceeded":          st.DeadlinesExceeded,
			"pressure_idle_reclaims":      st.PressureIdleReclaims,
			"pressure_snapshot_evictions": st.PressureSnapshotEvictions,
			"pressure_cold_fallbacks":     st.PressureColdFallbacks,
			"faults_injected":             st.FaultsInjected,
			"overloaded":                  st.Overloaded,
		},
	}
	// The fault-point roster: every point the injector can fire on this
	// node, with its registered behavior — so an operator reading /stats
	// can interpret a -fault-seed/-fault-rate run without the source.
	points := map[string]string{}
	for _, fp := range seuss.FaultPoints() {
		points[fp.Point] = fp.Description
	}
	body["fault_points"] = points
	if store := s.pool.SnapshotStore(); store != nil {
		ss := store.Stats()
		body["snapshot_tier"] = map[string]interface{}{
			"entries":          ss.Entries,
			"bytes":            ss.Bytes,
			"disk_files":       ss.DiskFiles,
			"disk_bytes":       ss.DiskBytes,
			"hits":             ss.Hits,
			"misses":           ss.Misses,
			"puts":             ss.Puts,
			"put_rejected":     ss.PutRejected,
			"evictions":        ss.Evictions,
			"corrupt_dropped":  ss.CorruptDropped,
			"demotions":        st.SnapshotsDemoted,
			"promotions":       st.SnapshotsPromoted,
			"prewarmed":        st.SnapshotsPrewarmed,
			"node_tier_hits":   st.TierHits,
			"node_tier_misses": st.TierMisses,
			"ws_dropped":       ss.WSDropped,
		}
		body["working_set"] = map[string]interface{}{
			"records_recorded": st.WSRecorded,
			"records_merged":   st.WSMerged,
			"records_corrupt":  st.WSCorrupt,
			"prefetched_pages": st.WSPrefetchedPages,
			"coverage_hits":    st.WSCoverageHits,
			"coverage_misses":  st.WSCoverageMisses,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleHealthz reports liveness plus each shard's circuit-breaker
// state. The status degrades (but the endpoint still answers 200 —
// the node IS alive and re-routing) when any breaker is not closed.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	breakers := s.pool.Pool().BreakerStates()
	status := "ok"
	for _, b := range breakers {
		if b != "closed" && b != "disabled" {
			status = "degraded"
			break
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":   status,
		"breakers": breakers,
	})
}

// handleMetrics serves the pool's merged metrics snapshot in
// Prometheus text exposition format, plus the trace buffer's retention
// accounting. The scrape reads lock-free per-shard recorders — it
// never waits behind a busy shard.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := seuss.WriteMetricsText(w, s.pool.Metrics()); err != nil {
		return // client went away mid-write; headers are already out
	}
	if s.tracer != nil {
		fmt.Fprintf(w, "# HELP seuss_trace_events Events currently retained in the trace buffer.\n"+
			"# TYPE seuss_trace_events gauge\n"+
			"seuss_trace_events %d\n", s.tracer.Len())
		fmt.Fprintf(w, "# HELP seuss_trace_dropped_total Trace events dropped after the retention budget filled.\n"+
			"# TYPE seuss_trace_dropped_total counter\n"+
			"seuss_trace_dropped_total %d\n", s.tracer.Dropped())
	}
}

// handleTrace serves the pool's event timeline. The default form is
// Chrome trace-event JSON ({"traceEvents": [...], "otherData": {...}}
// with drop accounting) streamed event by event — load it at
// chrome://tracing or ui.perfetto.dev. With ?follow=1 it switches to a
// live chunked JSONL feed of events as they are recorded (newline-
// delimited trace.Event objects), until the client disconnects — so
// the retained buffer is not the only window into a long run. Events
// from different shards interleave on their own per-shard virtual
// clocks.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	if r.URL.Query().Get("follow") == "1" {
		s.followTrace(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.tracer.WriteChromeTrace(w); err != nil {
		// Mid-stream failure: the body is already partially written, so
		// no JSON error envelope can follow it.
		log.Printf("seuss-node: trace export: %v", err)
	}
}

// followTrace streams newly recorded events as chunked JSONL until the
// client goes away. Only events recorded after the subscription starts
// are delivered; fetch /trace first for the retained history. The
// subscription starts before the headers go out, so every event
// recorded after the client sees the stream open is on it.
func (s *server) followTrace(w http.ResponseWriter, r *http.Request) {
	ch, cancel := s.tracer.Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush() // commit headers so the client sees the stream open
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// mux wires the server's routes (shared with the tests).
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/invoke", s.handleInvoke)
	m.HandleFunc("/stats", s.handleStats)
	m.HandleFunc("/healthz", s.handleHealthz)
	m.HandleFunc("/metrics", s.handleMetrics)
	m.HandleFunc("/trace", s.handleTrace)
	return m
}

// drainTimeout bounds graceful shutdown: in-flight invocations get
// this long to finish before the server gives up on stragglers.
const drainTimeout = 30 * time.Second

// options is the daemon's flag set, kept in one struct so the
// registration test can enumerate every flag and hold it against the
// README's documentation.
type options struct {
	addr        *string
	shards      *int
	noAO        *bool
	noSteal     *bool
	noPrewarm   *bool
	deadline    *time.Duration
	faultSeed   *int64
	faultRate   *float64
	snapDir     *string
	snapDiskCap *int64
	policy      *string
	keepalive   *time.Duration
	policyTick  *time.Duration
	pprofAddr   *string
}

// registerFlags declares every seuss-node flag on fs.
func registerFlags(fs *flag.FlagSet) *options {
	return &options{
		addr:        fs.String("addr", ":8080", "listen address"),
		shards:      fs.Int("shards", runtime.NumCPU(), "compute shard count"),
		noAO:        fs.Bool("no-ao", false, "disable anticipatory optimizations"),
		noSteal:     fs.Bool("no-steal", false, "disable work stealing (pin keys to owner shards)"),
		noPrewarm:   fs.Bool("no-prewarm", false, "skip the boot-time snapshot-tier prewarm (first hits restore lukewarm)"),
		deadline:    fs.Duration("deadline", 0, "per-invocation deadline (virtual time; 0 = unlimited)"),
		faultSeed:   fs.Int64("fault-seed", 0, "deterministic fault-injection seed"),
		faultRate:   fs.Float64("fault-rate", 0, "fault-point firing probability (0 disables injection)"),
		snapDir:     fs.String("snapdir", "", "snapshot disk-tier directory (empty = memory-only; evictions destroy snapshots)"),
		snapDiskCap: fs.Int64("snap-disk-cap", -1, "snapshot disk-tier capacity in bytes (-1 = unlimited, 0 = reject all writes)"),
		policy:      fs.String("policy", "", "lifecycle policy: none, fixed, or hybrid (empty = keep idle state until memory pressure)"),
		keepalive:   fs.Duration("keepalive", 10*time.Minute, "keep-alive window for -policy fixed"),
		policyTick:  fs.Duration("policy-tick", 30*time.Second, "lifecycle reaper period (wall clock; each tick advances the shards' virtual clocks by this much)"),
		pprofAddr:   fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)"),
	}
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	addr, shards, noAO, noSteal := opts.addr, opts.shards, opts.noAO, opts.noSteal
	deadline, faultSeed, faultRate := opts.deadline, opts.faultSeed, opts.faultRate
	snapDir, snapDiskCap, pprofAddr := opts.snapDir, opts.snapDiskCap, opts.pprofAddr

	if *pprofAddr != "" {
		// A separate listener keeps the profiling surface off the public
		// port; http.DefaultServeMux carries the pprof handlers.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("seuss-node: pprof: %v", err)
			}
		}()
	}

	cfg := seuss.PoolConfig{
		Shards:              *shards,
		Node:                seuss.NodeDefaults(),
		DisableWorkStealing: *noSteal,
		FaultSeed:           *faultSeed,
		FaultRate:           *faultRate,
	}
	if *noAO {
		cfg.Node.NetworkAO, cfg.Node.InterpreterAO = false, false
	}
	cfg.Node.InvokeDeadline = *deadline
	cfg.Node.Tracer = seuss.NewTrace(100000)
	// A live daemon seeds deploy-time entropy from the OS boot
	// generation: clones deployed from one snapshot diverge across
	// restarts too, not just within one process (DESIGN.md §14). The
	// source is shared by every shard, hence the concurrency-safe form.
	cfg.Node.Entropy = seuss.NewEntropySource()
	if *opts.policy != "" {
		pol, err := seuss.NewLifecyclePolicy(*opts.policy, *opts.keepalive)
		if err != nil {
			log.Fatalf("seuss-node: %v", err)
		}
		cfg.Node.Policy = pol
	}
	if *snapDir != "" {
		store, err := seuss.OpenSnapshotStore(*snapDir, *snapDiskCap)
		if err != nil {
			log.Fatalf("seuss-node: snapshot store: %v", err)
		}
		cfg.Node.SnapStore = store
		st := store.Stats()
		log.Printf("snapshot tier at %s: %d entries, %.1f MB on disk", *snapDir, st.Entries, float64(st.Bytes)/1e6)
	}
	start := time.Now()
	pool, err := seuss.NewNodePool(cfg)
	if err != nil {
		log.Fatalf("seuss-node: boot: %v", err)
	}
	log.Printf("pool booted in %v: %d shards hydrated from one runtime snapshot (AO=%v)",
		time.Since(start), pool.Shards(), !*noAO)
	if *faultRate > 0 {
		log.Printf("fault injection armed: seed=%d rate=%g", *faultSeed, *faultRate)
	}
	if cfg.Node.SnapStore != nil && !*opts.noPrewarm {
		// Prewarm the tier's hottest lineages back into shard memory so
		// the first request after a restart is warm, not cold.
		if n, err := pool.Prewarm(0); err != nil {
			log.Printf("seuss-node: prewarm: %v", err)
		} else if n > 0 {
			log.Printf("prewarmed %d function snapshot stacks from %s", n, *snapDir)
		}
	}

	// The lifecycle reaper: a wall-clock ticker mapped onto the shards'
	// virtual clocks (idle time is modelled explicitly — invocations
	// only advance a shard's clock by their own latencies, so each tick
	// contributes its period as idle time before the reaper pass).
	policyStop := make(chan struct{})
	policyDone := make(chan struct{})
	if cfg.Node.Policy != nil {
		log.Printf("lifecycle policy %s armed: reaper every %v", cfg.Node.Policy.Name(), *opts.policyTick)
		go func() {
			defer close(policyDone)
			tick := time.NewTicker(*opts.policyTick)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if ts, err := pool.PolicyTick(*opts.policyTick); err != nil {
						log.Printf("seuss-node: policy tick: %v", err)
					} else if ts.ExpiredUCs+ts.DemotedLineages+ts.Prewarmed > 0 {
						log.Printf("reaper: %d UCs expired, %d lineages scaled to zero, %d prewarmed",
							ts.ExpiredUCs, ts.DemotedLineages, ts.Prewarmed)
					}
				case <-policyStop:
					return
				}
			}
		}()
	} else {
		close(policyDone)
	}

	s := &server{pool: pool, tracer: cfg.Node.Tracer}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// SIGINT/SIGTERM: stop accepting, drain in-flight invocations, then
	// stop the shard goroutines — requests in flight complete, requests
	// after the signal are refused at the listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("shutdown signal; draining in-flight invocations (up to %v)", drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("seuss-node: drain: %v", err)
		}
	}()

	// Collect what boot left behind before the first request. Boot is
	// concurrent (shards hydrate side by side), so where its last
	// collection ended — and with it every later heap goal, each twice
	// the one before — differs from run to run; a collection here makes
	// the serving-time cycles a function of the served load instead.
	// Without it the same request sequence pays for one, two or three
	// mark phases over the same stretch, ±10 % CPU on a growing cache.
	runtime.GC()
	log.Printf("listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("seuss-node: serve: %v", err)
	}
	close(policyStop)
	<-policyDone
	if *snapDir != "" {
		// Drained: every in-flight invocation finished, so flushing the
		// resident snapshots now captures the final state of every shard.
		if n, err := pool.FlushSnapshots(); err != nil {
			log.Printf("seuss-node: snapshot flush: %v", err)
		} else {
			log.Printf("flushed %d function snapshots to %s", n, *snapDir)
		}
	}
	pool.Close()
	log.Printf("drained and closed; goodbye")
}
