// The server's observability plane (see DESIGN.md "Observability"):
// one flight recorder (internal/obs) shared by every handler, plus the
// latency/size histograms the Prometheus rendering exposes. Handlers
// open a root span per request and hang phase children off it —
// admission wait, cache lookup, compile (with tighten/encode attributed
// from internal/verify's phase clocks), branch-and-bound, monitor
// build, per-lane infer chunks — so a single /debug/traces/{id} fetch
// answers "where did this request spend its time".

package vnnserver

import (
	"time"

	"repro/internal/obs"
)

// serverObs bundles the recorder and histograms. Built once in New;
// every field is used unconditionally (the obs package is nil-safe, but
// the server always records — the cost is two atomic adds per
// observation and a handful of small allocations per request, measured
// in BENCH_infer.json's BenchmarkInferHTTP before/after).
type serverObs struct {
	rec *obs.Recorder

	// Per-route request latency, keyed by latencyRoutes (one histogram
	// per route so the Prometheus family vnnd_request_duration_seconds
	// carries a route label).
	latency map[string]*obs.Histogram

	// Scheduler decomposition: time spent waiting for a run slot vs
	// running (queue-wait + run ≈ request latency for scheduled routes).
	queueWait *obs.Histogram
	runTime   *obs.Histogram

	// Artifact build costs (cache misses only — hits cost nothing).
	compileTime  *obs.Histogram
	monitorBuild *obs.Histogram

	// Inference plane: batch sizes and per-lane chunk times.
	inferBatch *obs.Histogram
	chunkTime  *obs.Histogram

	// Fleet plane: wall time per reconcile round.
	reconcileTime *obs.Histogram

	// tenants is the per-tenant accounting plane: X-API-Key-derived
	// labels with a hard cardinality cap (Config.TenantCap), so the
	// request/latency/inputs/flagged counters and queue-wait histograms
	// below gain a tenant dimension without an unbounded label space.
	tenants *obs.TenantSet
}

// tenantRoutes is the fixed route universe per-tenant series exist for.
var tenantRoutes = []string{"/v1/verify", "/v1/analyze", "/v1/infer", "/v1/falsify"}

// latencyRoutes is the request-duration family in rendering order: the
// tenant routes plus the model gate (under its trace route name).
var latencyRoutes = []string{"/v1/verify", "/v1/analyze", "/v1/infer", "/v1/falsify", "gate"}

func newServerObs(cfg Config, node string) *serverObs {
	slowLog := cfg.SlowLog
	latency := make(map[string]*obs.Histogram, len(latencyRoutes))
	for _, route := range latencyRoutes {
		latency[route] = obs.NewHistogram("vnnd_request_duration_seconds", "Request latency by route.", 1e-9)
	}
	return &serverObs{
		latency: latency,
		rec: obs.NewRecorder(obs.RecorderOptions{
			Ring:          cfg.TraceRing,
			SlowThreshold: cfg.SlowRequest,
			SlowLog:       slowLog,
			Node:          node,
		}),
		tenants:       obs.NewTenantSet(cfg.TenantCap, 1e-9, tenantRoutes...),
		queueWait:     obs.NewHistogram("vnnd_queue_wait_seconds", "Time admitted queries wait for a run slot.", 1e-9),
		runTime:       obs.NewHistogram("vnnd_run_seconds", "Time admitted queries spend running.", 1e-9),
		compileTime:   obs.NewHistogram("vnnd_compile_seconds", "Compile cost on cache misses.", 1e-9),
		monitorBuild:  obs.NewHistogram("vnnd_monitor_build_seconds", "Monitor build cost on cache misses.", 1e-9),
		inferBatch:    obs.NewHistogram("vnnd_infer_batch_inputs", "Inputs per /v1/infer batch.", 1),
		chunkTime:     obs.NewHistogram("vnnd_infer_chunk_seconds", "Per-lane kernel chunk time.", 1e-9),
		reconcileTime: obs.NewHistogram("vnnd_fleet_reconcile_seconds", "Wall time per fleet reconcile round.", 1e-9),
	}
}

// observeSince records now-start into h (nanoseconds).
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// histogramsJSON snapshots every histogram into the wire form the
// /metrics JSON document and the fleet federation plane carry. The
// request-duration family comes first, one route-labelled entry per
// route; documents from different nodes merge entry-by-entry on
// (name, route) — see mergeMetrics.
func (o *serverObs) histogramsJSON() []obs.HistogramJSON {
	out := make([]obs.HistogramJSON, 0, 12)
	for _, route := range latencyRoutes {
		j := o.latency[route].Snapshot().JSON()
		j.Route = route
		out = append(out, j)
	}
	for _, h := range []*obs.Histogram{
		o.queueWait, o.runTime,
		o.compileTime, o.monitorBuild,
		o.inferBatch, o.chunkTime,
		o.reconcileTime,
	} {
		out = append(out, h.Snapshot().JSON())
	}
	return out
}
