package vnnserver

import (
	"io"

	"repro/internal/obs"
	"repro/pkg/vnnfleet"
	"repro/pkg/vnnregistry"
)

// Metrics is the /metrics snapshot: cache effectiveness, admission state,
// and this node's cumulative solver effort. EncodePasses/TightenPasses sum
// the passes of every compile this server ran (vnn.CompilePhases; cache
// hits and fleet imports add zero) and Solves the MILPs behind its
// answers (vnn.Stats.Solves) — per Server, so in-process nodes never see
// each other's work.
//
// Consistency: one Metrics value is a single-pass snapshot with a
// monotone guarantee between request counters and effort counters.
// Handlers bump effort (nodes, pivots, infer inputs/flagged) BEFORE they
// bump the request counter, and Metrics reads the request counters
// FIRST — so any request this snapshot counts also has its effort
// included. The converse skew (effort from a request not yet counted)
// is possible and benign: effort/requests ratios never dip spuriously.
// The Prometheus rendering (prom.go) is generated from one Metrics
// value, so scrapes inherit the same guarantee.
//
// This document is the metrics registry: every scalar field below has
// exactly one row in metricTable, and the scrape and the fleet merge are
// derived from that row.
type Metrics struct {
	// Node is the stable node id the federation plane keys this
	// document by (Config.NodeID, or hostname-derived at boot).
	Node     string  `json:"node"`
	UptimeMS float64 `json:"uptime_ms"`
	// Build identifies the running binary (also exposed as the
	// vnnd_build_info gauge in the Prometheus rendering).
	Build     BuildInfo      `json:"build"`
	Draining  bool           `json:"draining"`
	Cache     CacheStats     `json:"cache"`
	Scheduler SchedulerStats `json:"scheduler"`
	Queries   int64          `json:"queries"`
	// AnalyzeRequests counts /v1/analyze batches; Analyses breaks the
	// served analyses down by kind (coverage, quant_sweep, ...).
	AnalyzeRequests int64            `json:"analyze_requests"`
	Analyses        map[string]int64 `json:"analyses"`
	// Infer snapshots the online inference plane.
	Infer InferStats `json:"infer"`
	// Fleet snapshots the replication plane: reconcile rounds,
	// entries pulled/pushed, per-peer last-sync.
	Fleet vnnfleet.Stats `json:"fleet"`
	// Registry snapshots the verified-rollout plane: readiness, versions
	// by lifecycle state, and per-version serving/monitor counters.
	Registry      vnnregistry.Metrics `json:"registry"`
	Nodes         int64               `json:"nodes"`
	LPPivots      int64               `json:"lp_pivots"`
	EncodePasses  int64               `json:"encode_passes"`
	TightenPasses int64               `json:"tighten_passes"`
	// Solves counts branch-and-bound searches behind answered requests.
	Solves int64 `json:"solves"`
	// Runtime carries process gauges (goroutines, heap in use, GC pause
	// p99, uptime) sampled from runtime/metrics at snapshot time.
	Runtime obs.RuntimeStats `json:"runtime"`
	// Tenants is the per-tenant accounting plane keyed by API-key-derived
	// label, cardinality-capped at Config.TenantCap (+1 for the "other"
	// overflow bucket).
	Tenants map[string]obs.TenantSnapshot `json:"tenants"`
	// Histograms carries every latency/size histogram in wire form so
	// federation peers can merge them bucket-wise (boundaries are
	// identical by construction — see internal/obs).
	Histograms []obs.HistogramJSON `json:"histograms"`
}

// InferStats is the /metrics view of the inference plane.
type InferStats struct {
	// Requests and Inputs count served batches and individual inputs.
	Requests int64 `json:"requests"`
	Inputs   int64 `json:"inputs"`
	// Flagged counts inputs the runtime monitor rejected as
	// out-of-pattern.
	Flagged int64 `json:"flagged"`
	// Monitors is the number of cached monitor artifacts.
	Monitors int `json:"monitors"`
	// Workloads is the number of remembered by-fingerprint workloads.
	Workloads int `json:"workloads"`
	// Shards reports per-lane throughput: how many batch chunks and
	// inputs each serving lane processed. An idle lane means batches
	// were too small to shard (below the per-chunk minimum), not a bug.
	Shards []InferShardStats `json:"shards"`
}

// InferShardStats is one serving lane's cumulative throughput.
type InferShardStats struct {
	Batches int64 `json:"batches"`
	Inputs  int64 `json:"inputs"`
}

// shardStats snapshots the per-lane inference throughput counters.
func (s *Server) shardStats() []InferShardStats {
	out := make([]InferShardStats, len(s.shards.shards))
	for i, sh := range s.shards.shards {
		out[i] = InferShardStats{Batches: sh.batches.Load(), Inputs: sh.inputs.Load()}
	}
	return out
}

// Metrics snapshots the server's observable state. Request counters are
// read before effort counters — see the ordering guarantee on Metrics.
func (s *Server) Metrics() Metrics {
	// Request counters first (handlers bump these LAST)...
	queries := s.queries.Load()
	analyzes := s.analyzes.Load()
	inferRequests := s.inferRequests.Load()
	// ...then effort counters (handlers bump these FIRST), so every
	// counted request's effort is already visible.
	return Metrics{
		Node:            s.nodeID,
		UptimeMS:        msSince(s.start),
		Build:           Build(),
		Draining:        s.draining.Load(),
		Cache:           s.cache.stats(),
		Scheduler:       s.sched.Stats(),
		Queries:         queries,
		AnalyzeRequests: analyzes,
		Analyses:        s.analysisCounts(),
		Infer: InferStats{
			Requests:  inferRequests,
			Inputs:    s.inferInputs.Load(),
			Flagged:   s.inferFlagged.Load(),
			Monitors:  s.monitors.size(),
			Workloads: s.workloads.size(),
			Shards:    s.shardStats(),
		},
		Fleet:         s.fleet.Stats(),
		Registry:      s.registry.Snapshot(),
		Nodes:         s.nodes.Load(),
		LPPivots:      s.pivots.Load(),
		EncodePasses:  s.encodePasses.Load(),
		TightenPasses: s.tightenPasses.Load(),
		Solves:        s.solves.Load(),
		Runtime:       obs.ReadRuntime(s.start),
		Tenants:       s.obs.tenants.Snapshot(),
		Histograms:    s.obs.histogramsJSON(),
	}
}

// mergeRule says how /v1/fleet/metrics folds one row across nodes.
type mergeRule int

const (
	// mergeSum: cumulative counters and additive gauges (fleet total).
	mergeSum mergeRule = iota
	// mergeMax: worst-case gauges — the fleet is as old as its oldest
	// node and as slow as its worst GC pause.
	mergeMax
	// perNode: a fact about one process; the aggregate leaves it zero.
	perNode
)

// Prometheus family types.
const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// metricRow declares one scalar series of the Metrics document.
type metricRow struct {
	// at returns a pointer to the row's field: *int64, *int, *float64
	// or *bool.
	at func(*Metrics) any
	// prom is the Prometheus family ("" keeps the row out of the
	// scrape) with its help and type.
	prom, help, typ string
	// div is how many stored units make one exposition unit (1e3 for
	// milliseconds rendered as seconds); 0 means 1.
	div   float64
	merge mergeRule
	// then renders the labelled families that follow this row in the
	// scrape.
	then func(io.Writer, *Metrics)
}

// metricTable is the one declaration of every scalar in the Metrics
// document, in scrape order. writePromFrom and mergeMetrics loop over
// it; TestMetricTableComplete fails on a numeric or bool field that has
// no row here.
var metricTable = []metricRow{
	{at: func(m *Metrics) any { return &m.UptimeMS }, prom: "vnnd_uptime_seconds", help: "Seconds since the server started.", typ: gauge, div: 1e3, merge: mergeMax},
	{at: func(m *Metrics) any { return &m.Draining }, prom: "vnnd_draining", help: "1 while the server drains.", typ: gauge, merge: perNode},

	// Runtime gauges sampled from runtime/metrics at snapshot time.
	{at: func(m *Metrics) any { return &m.Runtime.Goroutines }, prom: "vnnd_goroutines", help: "Live goroutines.", typ: gauge},
	{at: func(m *Metrics) any { return &m.Runtime.HeapInuseBytes }, prom: "vnnd_heap_inuse_bytes", help: "Heap bytes in use.", typ: gauge},
	{at: func(m *Metrics) any { return &m.Runtime.GCPauseP99MS }, prom: "vnnd_gc_pause_p99_seconds", help: "99th-percentile GC stop-the-world pause.", typ: gauge, div: 1e3, merge: mergeMax},
	{at: func(m *Metrics) any { return &m.Runtime.UptimeSeconds }, merge: mergeMax},

	{at: func(m *Metrics) any { return &m.Cache.Hits }, prom: "vnnd_cache_hits_total", help: "Compile cache hits.", typ: counter},
	{at: func(m *Metrics) any { return &m.Cache.Misses }, prom: "vnnd_cache_misses_total", help: "Compile cache misses.", typ: counter},
	{at: func(m *Metrics) any { return &m.Cache.Evictions }, prom: "vnnd_cache_evictions_total", help: "Compile cache evictions.", typ: counter},
	{at: func(m *Metrics) any { return &m.Cache.Size }, prom: "vnnd_cache_entries", help: "Compile cache entries resident.", typ: gauge},
	{at: func(m *Metrics) any { return &m.Cache.Bytes }, prom: "vnnd_cache_bytes", help: "Accounted bytes of cached compiles.", typ: gauge},

	{at: func(m *Metrics) any { return &m.Scheduler.Admitted }, prom: "vnnd_scheduler_admitted", help: "Admission tokens held (queued, running or about to be).", typ: gauge},
	{at: func(m *Metrics) any { return &m.Scheduler.Active }, prom: "vnnd_scheduler_active", help: "Queries running now.", typ: gauge},
	{at: func(m *Metrics) any { return &m.Scheduler.Queued }, prom: "vnnd_scheduler_queued", help: "Queries waiting for a run slot.", typ: gauge},
	{at: func(m *Metrics) any { return &m.Scheduler.Rejected }, prom: "vnnd_scheduler_rejected_total", help: "Admissions rejected with queue-full.", typ: counter},
	{at: func(m *Metrics) any { return &m.Scheduler.Completed }, prom: "vnnd_scheduler_completed_total", help: "Queries completed.", typ: counter},

	{at: func(m *Metrics) any { return &m.Queries }, prom: "vnnd_queries_total", help: "Verify queries served.", typ: counter},
	{at: func(m *Metrics) any { return &m.AnalyzeRequests }, prom: "vnnd_analyze_requests_total", help: "Analyze batches served.", typ: counter, then: promAnalyses},

	{at: func(m *Metrics) any { return &m.Infer.Requests }, prom: "vnnd_infer_requests_total", help: "Infer batches served.", typ: counter},
	{at: func(m *Metrics) any { return &m.Infer.Inputs }, prom: "vnnd_infer_inputs_total", help: "Infer inputs served.", typ: counter},
	{at: func(m *Metrics) any { return &m.Infer.Flagged }, prom: "vnnd_infer_flagged_total", help: "Inputs the runtime monitor flagged.", typ: counter},
	{at: func(m *Metrics) any { return &m.Infer.Monitors }, prom: "vnnd_infer_monitors", help: "Cached monitor artifacts.", typ: gauge},
	{at: func(m *Metrics) any { return &m.Infer.Workloads }, prom: "vnnd_infer_workloads", help: "Remembered by-fingerprint workloads.", typ: gauge, then: promShards},

	{at: func(m *Metrics) any { return &m.Registry.Ready }, prom: "vnnd_registry_ready", help: "1 once registry recovery completed.", typ: gauge, merge: perNode},
	{at: func(m *Metrics) any { return &m.Registry.Models }, prom: "vnnd_registry_models", help: "Registered models.", typ: gauge, merge: perNode, then: promModelVersions},

	{at: func(m *Metrics) any { return &m.Fleet.Rounds }, prom: "vnnd_fleet_rounds_total", help: "Reconcile rounds initiated.", typ: counter},
	{at: func(m *Metrics) any { return &m.Fleet.EntriesPulled }, prom: "vnnd_fleet_entries_pulled_total", help: "Cache entries pulled from peers.", typ: counter},
	{at: func(m *Metrics) any { return &m.Fleet.EntriesPushed }, prom: "vnnd_fleet_entries_pushed_total", help: "Cache entries exported to peers.", typ: counter},
	{at: func(m *Metrics) any { return &m.Fleet.PullRejected }, prom: "vnnd_fleet_pull_rejected_total", help: "Pulled entries failing verification.", typ: counter},
	{at: func(m *Metrics) any { return &m.Fleet.PullSkipped }, prom: "vnnd_fleet_pull_skipped_total", help: "Pulls skipped by benign races.", typ: counter},

	{at: func(m *Metrics) any { return &m.Nodes }, prom: "vnnd_nodes_total", help: "Branch-and-bound nodes explored.", typ: counter},
	{at: func(m *Metrics) any { return &m.LPPivots }, prom: "vnnd_lp_pivots_total", help: "Simplex pivots performed.", typ: counter},
	{at: func(m *Metrics) any { return &m.EncodePasses }, prom: "vnnd_encode_passes_total", help: "MILP encoding passes.", typ: counter},
	{at: func(m *Metrics) any { return &m.TightenPasses }, prom: "vnnd_tighten_passes_total", help: "LP bound-tightening passes.", typ: counter},
	{at: func(m *Metrics) any { return &m.Solves }, prom: "vnnd_solves_total", help: "Branch-and-bound solves.", typ: counter, then: promTenants},
}

// histFamily declares one histogram family: the name its wire form and
// the scrape carry, the scrape's help text, and the exposition unit per
// recorded unit (1e-9 renders nanoseconds as seconds).
type histFamily struct {
	name, help string
	scale      float64
}

// Histogram family indices into histFamilies. The families before
// hRequest are one histogram each (serverObs.hist, same index) and
// reach the wire in this order, after the request-duration family.
const (
	hQueueWait = iota
	hRunTime
	hCompile
	hMonitorBuild
	hInferBatch
	hInferChunk
	hReconcile
	hRequest         // one histogram per route: serverObs.latency
	hTenantRequest   // one per tenant and route: obs.TenantSet
	hTenantQueueWait // one per tenant: obs.TenantSet
	numHistFamilies
)

// histFamilies is the one declaration of every histogram family a
// Metrics document may carry. The wire form (obs.HistogramJSON) drops
// help text to keep federated documents small, so the renderer reads it
// from here.
var histFamilies = [numHistFamilies]histFamily{
	hQueueWait:       {"vnnd_queue_wait_seconds", "Time admitted queries wait for a run slot.", 1e-9},
	hRunTime:         {"vnnd_run_seconds", "Time admitted queries spend running.", 1e-9},
	hCompile:         {"vnnd_compile_seconds", "Compile cost on cache misses.", 1e-9},
	hMonitorBuild:    {"vnnd_monitor_build_seconds", "Monitor build cost on cache misses.", 1e-9},
	hInferBatch:      {"vnnd_infer_batch_inputs", "Inputs per /v1/infer batch.", 1},
	hInferChunk:      {"vnnd_infer_chunk_seconds", "Per-lane kernel chunk time.", 1e-9},
	hReconcile:       {"vnnd_fleet_reconcile_seconds", "Wall time per fleet reconcile round.", 1e-9},
	hRequest:         {"vnnd_request_duration_seconds", "Request latency by route.", 1e-9},
	hTenantRequest:   {obs.TenantLatencyFamily, "Per-tenant request latency by route.", 1e-9},
	hTenantQueueWait: {obs.TenantQueueWaitFamily, "Per-tenant run-slot queue wait.", 1e-9},
}

func (f histFamily) new() *obs.Histogram { return obs.NewHistogram(f.name, f.scale) }

// histHelp returns the help text of the named histogram family ("" for
// a name this build does not declare, e.g. from a newer peer).
func histHelp(name string) string {
	for _, f := range histFamilies {
		if f.name == name {
			return f.help
		}
	}
	return ""
}
