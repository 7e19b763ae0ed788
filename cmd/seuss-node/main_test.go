package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"seuss"
)

func newTestPool(t *testing.T, shards int) *seuss.NodePool {
	t.Helper()
	pool, err := seuss.NewNodePool(seuss.PoolConfig{Shards: shards, Node: seuss.NodeDefaults()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := &server{pool: newTestPool(t, 2)}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, invokeResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out invokeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// errorBody decodes the uniform JSON error envelope, failing the test
// if the response is not JSON with a non-empty "error" field.
func errorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if e.Error == "" {
		t.Error("error body has empty \"error\" field")
	}
	return e.Error
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	var body struct {
		Status   string   `json:"status"`
		Breakers []string `json:"breakers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q", body.Status)
	}
	if len(body.Breakers) != 2 {
		t.Fatalf("breakers = %v, want one per shard", body.Breakers)
	}
	for i, b := range body.Breakers {
		if b != "closed" {
			t.Errorf("shard %d breaker = %q, want closed", i, b)
		}
	}
}

func TestMethodEnforcement(t *testing.T) {
	// Every endpoint rejects the wrong verb with a JSON 405 carrying an
	// Allow header — same envelope as /invoke errors.
	ts := newTestServer(t)
	for path, allow := range map[string]string{
		"/invoke":  http.MethodPost,
		"/stats":   http.MethodGet,
		"/healthz": http.MethodGet,
		"/metrics": http.MethodGet,
		"/trace":   http.MethodGet,
	} {
		wrong := http.MethodPost
		if allow == http.MethodPost {
			wrong = http.MethodGet
		}
		req, _ := http.NewRequest(wrong, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", wrong, path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != allow {
			t.Errorf("%s: Allow = %q, want %q", path, got, allow)
		}
		errorBody(t, resp)
		resp.Body.Close()
	}
}

func TestInvokeOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	body := `{"key": "web/hello", "source": "function main(args) { return {hi: args.name}; }", "args": {"name": "http"}}`

	resp, out := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Path != "cold" {
		t.Errorf("path = %q", out.Path)
	}
	if out.LatencyMS < 4 || out.LatencyMS > 12 {
		t.Errorf("latency = %.2f ms", out.LatencyMS)
	}
	if !strings.Contains(string(out.Output), `"hi":"http"`) {
		t.Errorf("output = %s", out.Output)
	}

	// Second call: hot, on the same owner shard.
	_, out2 := post(t, ts, body)
	if out2.Path != "hot" {
		t.Errorf("second path = %q", out2.Path)
	}
	if out2.Shard != out.Shard {
		t.Errorf("key moved shards: %d -> %d", out.Shard, out2.Shard)
	}
}

func TestInvokeValidation(t *testing.T) {
	ts := newTestServer(t)
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"empty":     {`{}`, http.StatusBadRequest},
		"bad json":  {`{`, http.StatusBadRequest},
		"no source": {`{"key": "x"}`, http.StatusBadRequest},
		"over cap": {`{"key": "x", "source": "` + strings.Repeat("x", maxInvokeBody) + `"}`,
			http.StatusRequestEntityTooLarge},
	} {
		resp, _ := post(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.want)
		}
		errorBody(t, resp)
	}
}

func TestInvokeBadSource(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts, `{"key": "bad/fn", "source": "function main( {"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", resp.StatusCode)
	}
	errorBody(t, resp)
}

// TestHostileGuestsAreContained: guests that once took the whole
// process down — unbounded recursion (a Go stack overflow is fatal),
// a string doubled forty times or an array rendered again and again
// (killed by the OS), source nested a megabyte deep, array slots kept
// in a global across invocations — now fail their own request with 422
// or 500, and the node serves the next request.
func TestHostileGuestsAreContained(t *testing.T) {
	ts := newTestServer(t)
	for name, src := range map[string]string{
		"recursion": `function f(x){ return f(x+1); } function main(){ return f(0); }`,
		"doubling":  `function main(){ var s = "x"; for (var i = 0; i < 40; i++) { s = s + s; } return s.length; }`,
		"nesting":   strings.Repeat("(", maxInvokeBody-64),
		"String of DAG": `function main(){ var a = ["x".repeat(1 << 20)]; for (var i = 0; i < 7; i++) { a = [a, a]; }
			var keep = []; for (var j = 0; j < 200; j++) { keep.push(String(a)); } return keep.length; }`,
	} {
		body, err := json.Marshal(map[string]string{"key": "hostile/" + name, "source": src})
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := post(t, ts, string(body))
		if resp.StatusCode != http.StatusUnprocessableEntity && resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status = %d, want 422 or 500", name, resp.StatusCode)
		}
		msg := errorBody(t, resp)
		t.Logf("%s: %d %s", name, resp.StatusCode, msg)

		next, out := post(t, ts, `{"key": "after/`+name+`", "source": "function main(args) { return {ok: true}; }"}`)
		if next.StatusCode != http.StatusOK || !strings.Contains(string(out.Output), `"ok":true`) {
			t.Fatalf("after %s: status %d, output %s", name, next.StatusCode, out.Output)
		}
	}

	// Slots kept in a global pass every per-invocation bound; the third
	// invocation passes the UC's lifetime bound, and its successor
	// starts again at zero.
	growth := `{"key": "hostile/growth", "source": "var g = []; function main(args) { g.length += 2000000; return g.length; }"}`
	var codes []int
	for i := 0; i < 4; i++ {
		resp, _ := post(t, ts, growth)
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK || codes[2] != http.StatusUnprocessableEntity || codes[3] != http.StatusOK {
		t.Errorf("kept growth: statuses %v, want 200 200 422 200", codes)
	}
}

// statsKeyPaths is the /stats body's operator surface: every key, one
// level of nesting spelled out (per_shard through its first element) —
// what bench/ and dashboards parse. A literal, so that a change to how
// the body is built cannot drop or rename a key unnoticed.
var statsKeyPaths = []string{
	"breakers", "cached_snapshots", "cold", "errors", "fault_points", "hot",
	"idle_ucs", "lukewarm", "memory_used_mb", "per_shard",
	"per_shard[0].cached_snapshots", "per_shard[0].cold", "per_shard[0].hot",
	"per_shard[0].idle_ucs", "per_shard[0].lukewarm",
	"per_shard[0].memory_used_mb", "per_shard[0].shard",
	"per_shard[0].virtual_clock", "per_shard[0].warm", "robustness",
	"robustness.breaker_trips", "robustness.deadlines_exceeded",
	"robustness.faults_injected", "robustness.overloaded",
	"robustness.pressure_cold_fallbacks",
	"robustness.pressure_idle_reclaims",
	"robustness.pressure_snapshot_evictions", "robustness.requeued",
	"robustness.rerouted", "robustness.stalls",
	"robustness.uc_crashes", "shards", "snapshot_tier",
	"snapshot_tier.bytes", "snapshot_tier.corrupt_dropped",
	"snapshot_tier.demotions", "snapshot_tier.disk_bytes",
	"snapshot_tier.disk_files", "snapshot_tier.entries",
	"snapshot_tier.evictions", "snapshot_tier.hits", "snapshot_tier.misses",
	"snapshot_tier.node_tier_hits", "snapshot_tier.node_tier_misses",
	"snapshot_tier.prewarmed", "snapshot_tier.promotions",
	"snapshot_tier.put_rejected", "snapshot_tier.puts",
	"snapshot_tier.ws_dropped", "snapshots_captured", "snapshots_evicted",
	"stolen", "ucs_deployed", "ucs_reclaimed", "warm", "working_set",
	"working_set.coverage_hits", "working_set.coverage_misses",
	"working_set.prefetched_pages", "working_set.records_corrupt",
	"working_set.records_merged", "working_set.records_recorded",
}

func TestStatsEndpoint(t *testing.T) {
	store, err := seuss.OpenSnapshotStore(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := seuss.NodeDefaults()
	cfg.SnapStore = store
	pool, err := seuss.NewNodePool(seuss.PoolConfig{Shards: 2, Node: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	ts := httptest.NewServer((&server{pool: pool}).mux())
	t.Cleanup(ts.Close)
	post(t, ts, `{"key": "s/fn", "source": "function main(a) { return {}; }"}`)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["cold"].(float64) != 1 {
		t.Errorf("cold = %v", stats["cold"])
	}
	if stats["cached_snapshots"].(float64) != 1 {
		t.Errorf("cached = %v", stats["cached_snapshots"])
	}
	if stats["memory_used_mb"].(float64) < 100 {
		t.Errorf("memory = %v", stats["memory_used_mb"])
	}
	if stats["shards"].(float64) != 2 {
		t.Errorf("shards = %v", stats["shards"])
	}
	per := stats["per_shard"].([]interface{})
	if len(per) != 2 {
		t.Fatalf("per_shard has %d entries", len(per))
	}

	var paths []string
	for k, v := range stats {
		paths = append(paths, k)
		sub, _ := v.(map[string]interface{})
		if k == "per_shard" {
			k, sub = "per_shard[0]", per[0].(map[string]interface{})
		}
		if k == "fault_points" {
			continue // the injector's registry, not a stats view
		}
		for sk := range sub {
			paths = append(paths, k+"."+sk)
		}
	}
	sort.Strings(paths)
	if !reflect.DeepEqual(paths, statsKeyPaths) {
		t.Errorf("/stats key paths changed:\n got %q\nwant %q", paths, statsKeyPaths)
	}
}

func TestConcurrentHTTPInvocations(t *testing.T) {
	// The lock-free server must survive parallel clients: no lost or
	// failed requests, and /stats totals match what clients observed.
	ts := newTestServer(t)
	const (
		workers = 8
		perW    = 10
		keys    = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perW)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("par/fn%d", (w*perW+i)%keys)
				body := fmt.Sprintf(`{"key": %q, "source": "function main(a) { return {ok: true}; }"}`, key)
				resp, err := http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out invokeResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", key, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	total := stats["cold"].(float64) + stats["warm"].(float64) + stats["hot"].(float64)
	if total != workers*perW {
		t.Errorf("served %v invocations, want %d", total, workers*perW)
	}
	if stats["errors"].(float64) != 0 {
		t.Errorf("errors = %v", stats["errors"])
	}
}

func TestTraceEndpoint(t *testing.T) {
	cfg := seuss.PoolConfig{Shards: 2, Node: seuss.NodeDefaults()}
	tracer := seuss.NewTrace(0)
	cfg.Node.Tracer = tracer
	pool, err := seuss.NewNodePool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	srv := &server{pool: pool, tracer: tracer}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	body := `{"key": "tr/fn", "source": "function main(a) { return {}; }"}`
	http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(body))

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		OtherData   map[string]string        `json:"otherData"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("empty trace after an invocation")
	}
	if doc.OtherData["dropped"] != "0" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	// The invoke span carries the request ID returned by /invoke.
	found := false
	for _, ev := range doc.TraceEvents {
		if args, ok := ev["args"].(map[string]interface{}); ok && args["id"] != nil {
			found = true
			break
		}
	}
	if !found {
		t.Error("no event carries a request id")
	}
}

func TestTraceFollowStreamsLiveEvents(t *testing.T) {
	cfg := seuss.PoolConfig{Shards: 2, Node: seuss.NodeDefaults()}
	tracer := seuss.NewTrace(0)
	cfg.Node.Tracer = tracer
	pool, err := seuss.NewNodePool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	srv := &server{pool: pool, tracer: tracer}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/trace?follow=1", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	// An invocation issued after the stream opened must appear on it.
	body := `{"key": "live/fn", "source": "function main(a) { return {}; }"}`
	if _, err := http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sawInvoke := false
	for i := 0; i < 50 && sc.Scan(); i++ {
		var ev map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ev["kind"] == "invoke" {
			sawInvoke = true
			break
		}
	}
	if !sawInvoke {
		t.Error("follow stream carried no invoke span")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	cfg := seuss.PoolConfig{Shards: 2, Node: seuss.NodeDefaults()}
	tracer := seuss.NewTrace(0)
	cfg.Node.Tracer = tracer
	pool, err := seuss.NewNodePool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	srv := &server{pool: pool, tracer: tracer}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	body := `{"key": "m/fn", "source": "function main(a) { return {}; }"}`
	http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(body))
	http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(body))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`seuss_invocations_total{path="cold"} 1`,
		`seuss_invocations_total{path="hot"} 1`,
		`seuss_invocation_latency_seconds_bucket{path="cold",le="+Inf"} 1`,
		`seuss_invocation_latency_seconds_count{path="cold"} 1`,
		`seuss_snapshot_stack_lookups_total{result=`,
		`seuss_deploy_kit_lookups_total{result=`,
		"seuss_trace_events ",
		"seuss_trace_dropped_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	validateExposition(t, text)
}

// validateExposition checks Prometheus text-format invariants: every
// sample line's metric name is covered by a preceding TYPE header, no
// family header repeats, and sample values parse as numbers.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				continue
			}
			if _, dup := typed[parts[2]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, parts[2])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample: %q", ln+1, line)
			continue
		}
		base := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(base, suffix); fam != base && typed[fam] == "histogram" {
				base = fam
				break
			}
		}
		if _, ok := typed[base]; !ok {
			t.Errorf("line %d: sample %q has no TYPE header", ln+1, m[1])
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Errorf("line %d: value %q not a number", ln+1, m[3])
		}
	}
}

func TestTraceEndpointDisabled(t *testing.T) {
	ts := newTestServer(t) // no tracer configured
	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
	errorBody(t, resp)
}

// TestStatsRobustnessLedger: a fault-armed server keeps serving (or
// failing contained) and exports the injection/containment counters
// plus per-shard breaker states through /stats.
func TestStatsRobustnessLedger(t *testing.T) {
	pool, err := seuss.NewNodePool(seuss.PoolConfig{
		Shards:    2,
		Node:      seuss.NodeDefaults(),
		FaultSeed: 1,
		FaultRate: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	ts := httptest.NewServer((&server{pool: pool}).mux())
	t.Cleanup(ts.Close)

	body := `{"key": "alice/fn", "source": "function main(args) { return {ok: true}; }"}`
	for i := 0; i < 30; i++ {
		resp, err := http.Post(ts.URL+"/invoke", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		// 200 (served) or 422 (contained fault surfaced) — never a
		// 5xx, never a hang.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("invoke %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Breakers   []string         `json:"breakers"`
		Robustness map[string]int64 `json:"robustness"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Breakers) != 2 {
		t.Errorf("breakers = %v", st.Breakers)
	}
	if st.Robustness["faults_injected"] == 0 {
		t.Error("rate 0.25 over 30 requests injected nothing")
	}
	if _, ok := st.Robustness["uc_crashes"]; !ok {
		t.Errorf("robustness ledger missing uc_crashes: %v", st.Robustness)
	}
}
