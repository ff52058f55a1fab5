// The server's observability plane (see DESIGN.md "Observability"):
// one flight recorder (internal/obs) shared by every handler, plus the
// latency/size histograms the Prometheus rendering exposes. Handlers
// open a root span per request and hang phase children off it —
// admission wait, cache lookup, compile (with tighten/encode attributed
// from internal/verify's phase clocks), branch-and-bound, monitor
// build, the infer run — so a single /debug/traces/{id} fetch
// answers "where did this request spend its time". Each phase has one
// owner (runJob, compiled, solve, buildMonitor, runInfer), so the gate's
// trace is an analyze batch's and every compile's looks the same.

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

	// hist holds the one-histogram families, indexed like histFamilies:
	// scheduler queue wait vs run time (their sum ≈ request latency on
	// scheduled routes), compile and monitor-build cost on cache misses,
	// infer batch sizes and kernel times, fleet reconcile rounds.
	hist [hRequest]*obs.Histogram

	// Per-route request latency, keyed by latencyRoutes (one histogram
	// per route so the family carries a route label).
	latency map[string]*obs.Histogram

	// tenants is the per-tenant accounting plane: X-API-Key-derived
	// labels with a hard cardinality cap (Config.TenantCap), so the
	// request/latency/inputs/flagged counters and queue-wait histograms
	// gain a tenant dimension without an unbounded label space.
	tenants *obs.TenantSet
}

// tenantRoutes is the fixed route universe per-tenant series exist for.
var tenantRoutes = []string{"/v1/verify", "/v1/analyze", "/v1/infer"}

// latencyRoutes is the request-duration family in rendering order: the
// tenant routes plus the model gate (under its trace route name).
var latencyRoutes = []string{"/v1/verify", "/v1/analyze", "/v1/infer", "gate"}

func newServerObs(cfg Config, node string) *serverObs {
	o := &serverObs{
		rec: obs.NewRecorder(obs.RecorderOptions{
			Ring:          cfg.TraceRing,
			SlowThreshold: cfg.SlowRequest,
			SlowLog:       cfg.Log,
			Node:          node,
		}),
		latency: make(map[string]*obs.Histogram, len(latencyRoutes)),
		tenants: obs.NewTenantSet(cfg.TenantCap, histFamilies[hTenantRequest].scale, tenantRoutes...),
	}
	for i := range o.hist {
		o.hist[i] = histFamilies[i].new()
	}
	for _, route := range latencyRoutes {
		o.latency[route] = histFamilies[hRequest].new()
	}
	return o
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
	out := make([]obs.HistogramJSON, 0, len(latencyRoutes)+len(o.hist))
	for _, route := range latencyRoutes {
		j := o.latency[route].Snapshot()
		j.Route = route
		out = append(out, j)
	}
	for _, h := range o.hist {
		out = append(out, h.Snapshot())
	}
	return out
}
