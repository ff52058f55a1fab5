package vnnserver

import (
	"expvar"

	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/verify"
	"repro/pkg/vnnfleet"
	"repro/pkg/vnnregistry"
)

// Process-wide expvar counters, published once under the vnnd.*
// namespace. Like internal/verify's EncodePasses/TightenPasses they
// aggregate across every Server in the process, so they are visible both
// through each server's /metrics snapshot and through the standard
// /debug/vars endpoint wherever the caller mounts expvar.Handler().
var (
	xCacheHits      = expvar.NewInt("vnnd.cache.hits")
	xCacheMisses    = expvar.NewInt("vnnd.cache.misses")
	xCacheEvictions = expvar.NewInt("vnnd.cache.evictions")
	// xCacheBytes is the accounted resident size of completed compile
	// cache entries (sums vnn.CompiledNetwork.SizeBytes; falls on evict).
	xCacheBytes     = expvar.NewInt("vnnd.cache.bytes")
	xQueries        = expvar.NewInt("vnnd.queries")
	xAnalyzes       = expvar.NewInt("vnnd.analyzes")
	xFalsifications = expvar.NewInt("vnnd.falsifications")
	xRejected       = expvar.NewInt("vnnd.rejected")
	xNodes          = expvar.NewInt("vnnd.nodes")
	xLPPivots       = expvar.NewInt("vnnd.lp_pivots")
	// xAnalysisKinds counts analyses served through /v1/analyze by kind
	// (vnnd.analyses.coverage, vnnd.analyses.quant_sweep, ...).
	xAnalysisKinds = expvar.NewMap("vnnd.analyses")
	// vnnd.infer.* instruments the online inference plane: requests and
	// inputs served, inputs the runtime monitor flagged out-of-pattern,
	// and monitor-cache effectiveness (misses = monitor builds).
	xInferRequests      = expvar.NewInt("vnnd.infer.requests")
	xInferInputs        = expvar.NewInt("vnnd.infer.inputs")
	xInferFlagged       = expvar.NewInt("vnnd.infer.flagged")
	xInferMonitorHits   = expvar.NewInt("vnnd.infer.monitor.hits")
	xInferMonitorMisses = expvar.NewInt("vnnd.infer.monitor.misses")
	// vnnd.models.* instruments the verified-rollout plane: versions
	// submitted, gate outcomes, and lifecycle operations.
	xModelSubmits    = expvar.NewInt("vnnd.models.submits")
	xModelAdmitted   = expvar.NewInt("vnnd.models.admitted")
	xModelRejected   = expvar.NewInt("vnnd.models.rejected")
	xModelPromotions = expvar.NewInt("vnnd.models.promotions")
	xModelRollbacks  = expvar.NewInt("vnnd.models.rollbacks")
)

// Metrics is the /metrics snapshot: cache effectiveness, admission state,
// and cumulative solver effort. EncodePasses/TightenPasses are the
// process-wide instrumentation counters from internal/verify — the ground
// truth that cached compilations are actually reused (cache hits add
// zero passes).
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
	Falsifications  int64            `json:"falsifications"`
	// Infer snapshots the online inference plane.
	Infer InferStats `json:"infer"`
	// Fleet snapshots the replication plane: reconcile rounds, coded
	// symbols exchanged, entries pulled/pushed, per-peer last-sync.
	Fleet vnnfleet.Stats `json:"fleet"`
	// Registry snapshots the verified-rollout plane: readiness, versions
	// by lifecycle state, and per-version serving/monitor counters.
	Registry      vnnregistry.Metrics `json:"registry"`
	Nodes         int64               `json:"nodes"`
	LPPivots      int64               `json:"lp_pivots"`
	EncodePasses  int64               `json:"encode_passes"`
	TightenPasses int64               `json:"tighten_passes"`
	// Solves counts branch-and-bound solver invocations process-wide
	// (from internal/milp).
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
	falsifications := s.falsifications.Load()
	inferRequests := s.inferRequests.Load()
	// ...then effort counters (handlers bump these FIRST), so every
	// counted request's effort is already visible.
	return Metrics{
		Node:            s.nodeID,
		UptimeMS:        msSince(s.start),
		Build:           Build(),
		Draining:        s.draining.Load(),
		Cache:           s.cache.Stats(),
		Scheduler:       s.sched.Stats(),
		Queries:         queries,
		AnalyzeRequests: analyzes,
		Analyses:        s.analysisCounts(),
		Falsifications:  falsifications,
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
		EncodePasses:  verify.EncodePasses(),
		TightenPasses: verify.TightenPasses(),
		Solves:        milp.Solves(),
		Runtime:       obs.ReadRuntime(s.start),
		Tenants:       s.obs.tenants.Snapshot(),
		Histograms:    s.obs.histogramsJSON(),
	}
}
