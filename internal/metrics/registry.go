// The metrics registry: a fixed, pre-registered set of monotonic
// counters and latency histograms every instrumented layer (core node,
// shard pool, cluster) records into, plus the Prometheus text
// exposition writer.
//
// Design: observability must stay off the allocation-free hot path.
// Every counter and histogram is registered at compile time as an
// index into a fixed array of atomics — recording is one atomic add,
// with no map lookups, no label interning, and no per-event heap
// allocation. A sharded pool gives each shard a private Recorder
// (lock-free by construction: atomics, no shared cache lines beyond
// the array) and merges Snapshots on read, mirroring how per-shard
// stats are already aggregated.

package metrics

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// Counter identifies one pre-registered monotonic counter.
type Counter int

// The registered counters. Descriptors in counterDescs must stay in
// this order, with counters sharing a Prometheus family name adjacent,
// so the exposition writer can group them under one HELP/TYPE header.
const (
	// Invocations by outcome (the paper's cold/warm/hot split, plus
	// the disk tier's lukewarm restores).
	CtrColdInvocations Counter = iota
	CtrWarmInvocations
	CtrHotInvocations
	CtrLukewarmInvocations
	CtrInvokeErrors
	// Cache behavior: snapshot-stack (function snapshot) lookups, idle
	// UC (hot path) hits, and deploy-kit recycling.
	CtrSnapshotStackHits
	CtrSnapshotStackMisses
	CtrIdleUCHits
	CtrDeployKitHits
	CtrDeployKitMisses
	// UC lifecycle.
	CtrUCsDeployed
	CtrUCsReclaimed
	CtrSnapshotsCaptured
	CtrSnapshotsEvicted
	// Snapshot disk tier: lookups on the lukewarm path, evictions
	// persisted as demotions, promotions back into RAM.
	CtrTierHits
	CtrTierMisses
	CtrTierDemotions
	CtrTierPromotionsLukewarm
	CtrTierPromotionsPrewarm
	// Failure containment.
	CtrUCCrashes
	CtrDeadlinesExceeded
	CtrPressureIdleReclaims
	CtrPressureSnapshotEvictions
	CtrPressureColdFallbacks
	CtrFaultsInjected
	// Pool routing and breaker transitions.
	CtrBreakerTrips
	CtrRequestsStolen
	CtrRequestsRerouted
	CtrRequestsRequeued
	CtrShardStalls
	CtrRequestsOverloaded
	// Scheduler placements and the snapshot fabric.
	CtrSchedPlacementsCold
	CtrSchedPlacementsRoute
	CtrSchedPlacementsFetch
	CtrSchedStaleEntries
	CtrSchedLocalHits
	CtrGossipRounds
	CtrGossipDrops
	CtrFabricLayersFetched
	CtrFabricLayersDeduped
	CtrFabricLayersRejected
	CtrFabricFetchedBytes
	CtrFabricFetchesFailed
	CtrFabricFetchRetransmits
	// Member liveness lifecycle, failover, and redundancy repair.
	CtrMemberStateAlive
	CtrMemberStateSuspect
	CtrMemberStateDead
	CtrMemberCrashes
	CtrMemberRestarts
	CtrMemberPartitions
	CtrClusterRetries
	CtrClusterFailovers
	CtrFabricRepairsPromoted
	CtrFabricRepairsRefetched
	CtrFabricRepairsCold
	CtrFabricRepairsFailed
	// Working-set record/replay on the lukewarm path.
	CtrWSRecordsRecorded
	CtrWSRecordsMerged
	CtrWSRecordsCorrupt
	CtrWSPrefetchedPages
	CtrWSCoverageHits
	CtrWSCoverageMisses
	// Restore-time uniqueness: entropy reseeds drawn at deploy, by path.
	CtrReseedsBoot
	CtrReseedsCold
	CtrReseedsWarm
	CtrReseedsLukewarm
	CtrReseedsKit
	// Lifecycle policy: keep-alive expirations (idle UCs destroyed and
	// lineages scaled to zero) and prewarm outcomes.
	CtrPolicyExpirations
	CtrPolicyPrewarmsPromoted
	CtrPolicyPrewarmsMiss
	CtrPolicyPrewarmsMisfire

	// NumCounters is the registry's length: the size of any array
	// indexed by Counter.
	NumCounters
)

// Counters is one reading of every registered counter, indexed by
// Counter: the only shape counts travel in between layers. A layer that
// keeps its own (core.Node, cluster.Cluster) holds one
// beside its Recorder; readers sum them with Add and derive their Stats
// shape from the sum at read time.
type Counters [NumCounters]int64

// Add accumulates o into c, element-wise.
func (c *Counters) Add(o Counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// Hist identifies one pre-registered latency histogram.
type Hist int

// The registered histograms: invocation latency split by path.
const (
	HistColdLatency Hist = iota
	HistWarmLatency
	HistHotLatency
	HistLukewarmLatency
	// HistPolicyKeepalive records the keep-alive window the lifecycle
	// policy granted at each invocation completion — duration-scaled
	// buckets (KeepaliveBuckets), not latency-scaled.
	HistPolicyKeepalive

	numHists
)

type desc struct {
	name   string // Prometheus family name
	help   string // HELP text, written once per family
	labels string // rendered label pairs, "" for none
}

var counterDescs = [NumCounters]desc{
	CtrColdInvocations:     {"seuss_invocations_total", "Invocations served, by path taken.", `path="cold"`},
	CtrWarmInvocations:     {"seuss_invocations_total", "", `path="warm"`},
	CtrHotInvocations:      {"seuss_invocations_total", "", `path="hot"`},
	CtrLukewarmInvocations: {"seuss_invocations_total", "", `path="lukewarm"`},
	CtrInvokeErrors:        {"seuss_invocation_errors_total", "Invocations that returned an error.", ""},

	CtrSnapshotStackHits:   {"seuss_snapshot_stack_lookups_total", "Function-snapshot (snapshot stack) cache lookups on the warm path.", `result="hit"`},
	CtrSnapshotStackMisses: {"seuss_snapshot_stack_lookups_total", "", `result="miss"`},
	CtrIdleUCHits:          {"seuss_idle_uc_hits_total", "Invocations served hot from a cached idle UC.", ""},
	CtrDeployKitHits:       {"seuss_deploy_kit_lookups_total", "Deploy-kit cache lookups (retired UC recycling) during deploys.", `result="hit"`},
	CtrDeployKitMisses:     {"seuss_deploy_kit_lookups_total", "", `result="miss"`},

	CtrUCsDeployed:       {"seuss_ucs_deployed_total", "UCs deployed from snapshots.", ""},
	CtrUCsReclaimed:      {"seuss_ucs_reclaimed_total", "Idle UCs destroyed by the OOM reclaim policy.", ""},
	CtrSnapshotsCaptured: {"seuss_snapshots_captured_total", "Function snapshots captured on cold paths.", ""},
	CtrSnapshotsEvicted:  {"seuss_snapshots_evicted_total", "Function snapshots evicted from the cache.", ""},

	CtrTierHits:               {"seuss_snapshot_tier_lookups_total", "Disk-tier lookups on the lukewarm path.", `result="hit"`},
	CtrTierMisses:             {"seuss_snapshot_tier_lookups_total", "", `result="miss"`},
	CtrTierDemotions:          {"seuss_snapshot_tier_demotions_total", "Snapshots demoted to the disk tier instead of destroyed.", ""},
	CtrTierPromotionsLukewarm: {"seuss_snapshot_tier_promotions_total", "Snapshots promoted from the disk tier back into RAM, by trigger.", `kind="lukewarm"`},
	CtrTierPromotionsPrewarm:  {"seuss_snapshot_tier_promotions_total", "", `kind="prewarm"`},

	CtrUCCrashes:                 {"seuss_uc_crashes_total", "UCs destroyed after a contained mid-invocation fault.", ""},
	CtrDeadlinesExceeded:         {"seuss_deadlines_exceeded_total", "Invocations killed by their step-budget deadline.", ""},
	CtrPressureIdleReclaims:      {"seuss_pressure_degradations_total", "Memory-pressure degradations, by ladder level.", `level="idle_reclaim"`},
	CtrPressureSnapshotEvictions: {"seuss_pressure_degradations_total", "", `level="snapshot_eviction"`},
	CtrPressureColdFallbacks:     {"seuss_pressure_degradations_total", "", `level="cold_fallback"`},
	CtrFaultsInjected:            {"seuss_faults_injected_total", "Fault points fired by the deterministic injector.", ""},

	CtrBreakerTrips:     {"seuss_breaker_trips_total", "Circuit-breaker closed-to-open transitions.", ""},
	CtrRequestsStolen:   {"seuss_requests_stolen_total", "Requests served off their owner shard via work stealing.", ""},
	CtrRequestsRerouted: {"seuss_requests_rerouted_total", "Requests diverted away from an open breaker.", ""},
	CtrRequestsRequeued: {"seuss_requests_requeued_total", "Requests a stalled shard pushed back for a healthy shard.", ""},
	CtrShardStalls:      {"seuss_shard_stalls_total", "Injected shard stalls.", ""},

	CtrRequestsOverloaded: {"seuss_requests_overloaded_total", "Requests refused because their shard's queue stayed full past the admission deadline.", ""},

	CtrSchedPlacementsCold:  {"seuss_sched_placements_total", "Scheduler placement decisions, by action.", `action="cold"`},
	CtrSchedPlacementsRoute: {"seuss_sched_placements_total", "", `action="route"`},
	CtrSchedPlacementsFetch: {"seuss_sched_placements_total", "", `action="fetch"`},
	CtrSchedStaleEntries:    {"seuss_sched_stale_entries_total", "Stale scheduler directory entries pruned at placement time.", ""},
	CtrSchedLocalHits:       {"seuss_sched_local_hits_total", "Route placements whose holder was also the least-loaded member.", ""},
	CtrGossipRounds:         {"seuss_fabric_gossip_rounds_total", "Completed scheduler manifest-exchange rounds.", ""},
	CtrGossipDrops:          {"seuss_fabric_gossip_drops_total", "Gossip exchanges lost to injected faults.", ""},
	CtrFabricLayersFetched:  {"seuss_fabric_layer_transfers_total", "Snapshot-layer transfer outcomes on the fabric.", `outcome="fetched"`},
	CtrFabricLayersDeduped:  {"seuss_fabric_layer_transfers_total", "", `outcome="deduped"`},
	CtrFabricLayersRejected: {"seuss_fabric_layer_transfers_total", "", `outcome="rejected"`},

	CtrFabricFetchedBytes:     {"seuss_fabric_fetched_bytes_total", "Bytes shipped by completed replication fetches (deduped layers ship none).", ""},
	CtrFabricFetchesFailed:    {"seuss_fabric_fetches_failed_total", "Replication fetches abandoned mid-flight; the holder served instead.", ""},
	CtrFabricFetchRetransmits: {"seuss_fabric_fetch_retransmits_total", "Injected fetch packet drops, each costing one extra round trip.", ""},

	CtrMemberStateAlive:       {"seuss_cluster_member_state_transitions_total", "Member liveness transitions, by state entered.", `state="alive"`},
	CtrMemberStateSuspect:     {"seuss_cluster_member_state_transitions_total", "", `state="suspect"`},
	CtrMemberStateDead:        {"seuss_cluster_member_state_transitions_total", "", `state="dead"`},
	CtrMemberCrashes:          {"seuss_cluster_member_events_total", "Member lifecycle events, test hooks and injected faults alike.", `event="crash"`},
	CtrMemberRestarts:         {"seuss_cluster_member_events_total", "", `event="restart"`},
	CtrMemberPartitions:       {"seuss_cluster_member_events_total", "", `event="partition"`},
	CtrClusterRetries:         {"seuss_cluster_retries_total", "Invocations re-picked after a contained fault.", ""},
	CtrClusterFailovers:       {"seuss_cluster_failovers_total", "Invocations re-picked to a live member after the serving member became unreachable.", ""},
	CtrFabricRepairsPromoted:  {"seuss_fabric_repairs_total", "Repair-pass actions for lineages that lost their last live holder, by outcome.", `outcome="promoted"`},
	CtrFabricRepairsRefetched: {"seuss_fabric_repairs_total", "", `outcome="refetched"`},
	CtrFabricRepairsCold:      {"seuss_fabric_repairs_total", "", `outcome="cold"`},
	CtrFabricRepairsFailed:    {"seuss_fabric_repairs_total", "", `outcome="failed"`},

	CtrWSRecordsRecorded: {"seuss_ws_records_total", "Working-set record events on the lukewarm path, by outcome.", `outcome="recorded"`},
	CtrWSRecordsMerged:   {"seuss_ws_records_total", "", `outcome="merged"`},
	CtrWSRecordsCorrupt:  {"seuss_ws_records_total", "", `outcome="corrupt"`},
	CtrWSPrefetchedPages: {"seuss_ws_prefetched_pages_total", "Pages bulk-mapped from working-set records before lukewarm resume.", ""},
	CtrWSCoverageHits:    {"seuss_ws_coverage_pages_total", "Pages a lukewarm invocation touched, split by working-set coverage.", `result="hit"`},
	CtrWSCoverageMisses:  {"seuss_ws_coverage_pages_total", "", `result="miss"`},

	CtrReseedsBoot:     {"seuss_uc_reseeds_total", "Entropy reseeds drawn at UC deploy, by path.", `path="boot"`},
	CtrReseedsCold:     {"seuss_uc_reseeds_total", "", `path="cold"`},
	CtrReseedsWarm:     {"seuss_uc_reseeds_total", "", `path="warm"`},
	CtrReseedsLukewarm: {"seuss_uc_reseeds_total", "", `path="lukewarm"`},
	CtrReseedsKit:      {"seuss_uc_reseeds_total", "", `path="kit"`},

	CtrPolicyExpirations:      {"seuss_policy_expirations_total", "Keep-alive expirations by the lifecycle policy: idle UCs destroyed plus lineages demoted to the disk tier (scale-to-zero).", ""},
	CtrPolicyPrewarmsPromoted: {"seuss_policy_prewarms_total", "Policy-driven prewarm attempts, by outcome.", `outcome="promoted"`},
	CtrPolicyPrewarmsMiss:     {"seuss_policy_prewarms_total", "", `outcome="miss"`},
	CtrPolicyPrewarmsMisfire:  {"seuss_policy_prewarms_total", "", `outcome="misfire"`},
}

var histDescs = [numHists]desc{
	HistColdLatency:     {"seuss_invocation_latency_seconds", "Node-side invocation latency (virtual time), by path.", `path="cold"`},
	HistWarmLatency:     {"seuss_invocation_latency_seconds", "", `path="warm"`},
	HistHotLatency:      {"seuss_invocation_latency_seconds", "", `path="hot"`},
	HistLukewarmLatency: {"seuss_invocation_latency_seconds", "", `path="lukewarm"`},
	HistPolicyKeepalive: {"seuss_policy_keepalive_seconds", "Keep-alive window granted by the lifecycle policy at each invocation completion.", ""},
}

// histBounds overrides a histogram's bucket bound table; nil entries
// use the default LatencyBuckets.
var histBounds = [numHists]*[len(LatencyBuckets)]time.Duration{
	HistPolicyKeepalive: &KeepaliveBuckets,
}

// boundsFor returns the bound table a histogram records and renders
// against.
func boundsFor(h Hist) *[len(LatencyBuckets)]time.Duration {
	if b := histBounds[h]; b != nil {
		return b
	}
	return &LatencyBuckets
}

// Recorder is one collection point's metric storage: a fixed array of
// atomic counters plus the registered histograms. All methods are
// safe for concurrent use and nil-safe — un-instrumented code paths
// carry a nil Recorder at zero cost and zero conditionals at call
// sites.
type Recorder struct {
	counters [NumCounters]atomic.Int64
	hists    [numHists]Histogram
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Inc adds one to a counter. Safe on a nil recorder.
func (r *Recorder) Inc(c Counter) {
	if r != nil {
		r.counters[c].Add(1)
	}
}

// AddCounter adds n to a counter. Safe on a nil recorder.
func (r *Recorder) AddCounter(c Counter, n int64) {
	if r != nil {
		r.counters[c].Add(n)
	}
}

// Observe records a duration into a histogram. Safe on a nil recorder;
// never allocates.
func (r *Recorder) Observe(h Hist, d time.Duration) {
	if r != nil {
		r.hists[h].observe(boundsFor(h), d)
	}
}

// Counters reads every counter. Safe on a nil recorder (all zero).
func (r *Recorder) Counters() Counters {
	var c Counters
	if r != nil {
		for i := range r.counters {
			c[i] = r.counters[i].Load()
		}
	}
	return c
}

// Snapshot returns a point-in-time copy of every counter and
// histogram. Safe on a nil recorder (returns the zero snapshot).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{Counters: r.Counters()}
	if r != nil {
		for i := range r.hists {
			s.Hists[i] = r.hists[i].Snapshot()
		}
	}
	return s
}

// Snapshot is an immutable reading of a Recorder: the unit merged
// across shards on scrape.
type Snapshot struct {
	Counters Counters
	Hists    [numHists]HistogramSnapshot
}

// Merge accumulates o into s (element-wise, associative).
func (s *Snapshot) Merge(o Snapshot) {
	s.Counters.Add(o.Counters)
	for i := range s.Hists {
		s.Hists[i].Merge(o.Hists[i])
	}
}

// Counter returns one counter's value.
func (s Snapshot) Counter(c Counter) int64 { return s.Counters[c] }

// Histogram returns one histogram's snapshot.
func (s Snapshot) Histogram(h Hist) HistogramSnapshot { return s.Hists[h] }

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4): counters as counter families, histograms as
// cumulative-bucket histogram families with +Inf, _sum, and _count
// series. Families sharing a name are grouped under a single
// HELP/TYPE header, as the format requires.
func WritePrometheus(w io.Writer, s Snapshot) error {
	prev := ""
	for i := Counter(0); i < NumCounters; i++ {
		d := counterDescs[i]
		if d.name != prev {
			if err := writeHeader(w, d.name, d.help, "counter"); err != nil {
				return err
			}
			prev = d.name
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", d.name, renderLabels(d.labels), s.Counters[i]); err != nil {
			return err
		}
	}
	prev = ""
	for i := Hist(0); i < numHists; i++ {
		d := histDescs[i]
		if d.name != prev {
			if err := writeHeader(w, d.name, d.help, "histogram"); err != nil {
				return err
			}
			prev = d.name
		}
		if err := writeHistogram(w, d, boundsFor(i), s.Hists[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

func renderLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func writeHistogram(w io.Writer, d desc, bounds *[len(LatencyBuckets)]time.Duration, h HistogramSnapshot) error {
	sep := ""
	if d.labels != "" {
		sep = d.labels + ","
	}
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = formatSeconds(bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", d.name, sep, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", d.name, renderLabels(d.labels),
		strconv.FormatFloat(float64(h.SumNanos)/1e9, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", d.name, renderLabels(d.labels), cum)
	return err
}

// formatSeconds renders a bucket bound as a seconds float ("0.001").
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
