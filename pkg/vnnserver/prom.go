// Prometheus text exposition (format version 0.0.4) for /metrics. The
// JSON snapshot stays the default — existing dashboards and the CI
// smoke greps consume it — and a scraper opts into this rendering with
// `Accept: text/plain` (Prometheus always sends a text/plain clause) or
// `?format=prometheus`.
//
// Every family is rendered from ONE Metrics() snapshot, so the
// cross-counter consistency guarantee documented on Metrics holds for
// scrapes too. Histograms come from internal/obs: log2 buckets rendered
// cumulatively with `le` bounds scaled to the exposition unit, plus the
// standard _sum and _count series.

package vnnserver

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/pkg/vnnregistry"
)

// wantsProm reports whether the request negotiated the Prometheus text
// format. The Accept match is deliberately narrow: curl's default
// `*/*` must keep getting JSON (the format CI and the examples parse).
func wantsProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily writes one # HELP / # TYPE header.
func promFamily(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promHistogram renders one histogram snapshot as a labelled series set
// under an already-written family header: cumulative `_bucket` series,
// `_sum` and `_count`. labels is the shared label string ("" or
// `route="/v1/infer"`).
func promHistogram(w io.Writer, name, labels string, s obs.HistogramSnapshot) {
	bucketLabels := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", labels, le)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	var cum int64
	for k := 0; k <= obs.NumBuckets; k++ {
		cum += s.Buckets[k]
		le := "+Inf"
		if k < obs.NumBuckets {
			le = promFloat(float64(obs.BucketUpper(k)) * s.Scale)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, promFloat(float64(s.Sum)*s.Scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
}

// writeProm renders the full Prometheus view from one metrics snapshot.
func (s *Server) writeProm(w http.ResponseWriter) {
	m := s.Metrics() // ONE snapshot; every family below reads from it
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	writePromFrom(w, m)
}

// writePromFrom renders one Metrics document — live or federated — as
// Prometheus text exposition. Everything below reads from m only (no
// live server state), which is what lets /v1/fleet/metrics reuse the
// renderer for the merged aggregate. Scalars come off metricTable; the
// labelled families hang off the row they follow (metricRow.then).
func writePromFrom(w io.Writer, m Metrics) {
	b := m.Build
	promFamily(w, "vnnd_build_info", "Build identity (value is always 1).", gauge)
	fmt.Fprintf(w, "vnnd_build_info{version=%q,revision=%q,go=%q} 1\n",
		promEscape(b.Version), promEscape(b.Revision), promEscape(b.Go))

	for i := range metricTable {
		r := &metricTable[i]
		if r.prom != "" {
			promFamily(w, r.prom, r.help, r.typ)
			fmt.Fprintf(w, "%s %s\n", r.prom, r.sample(&m))
		}
		if r.then != nil {
			r.then(w, &m)
		}
	}

	// Histograms come off the snapshot's wire form — the same entries a
	// federated document carries — so live and merged views render
	// identically. Entries arrive grouped by family (histogramsJSON
	// emits the route-labelled request-duration family first).
	lastFamily := ""
	for _, hj := range m.Histograms {
		if hj.Name == "" {
			continue
		}
		if hj.Name != lastFamily {
			promFamily(w, hj.Name, histHelp(hj.Name), histogram)
			lastFamily = hj.Name
		}
		labels := ""
		if hj.Route != "" {
			labels = fmt.Sprintf("route=%q", promEscape(hj.Route))
		}
		promHistogram(w, hj.Name, labels, hj.Snapshot())
	}
}

// sample formats the row's value in m: counters as exact integers,
// gauges as floats in the exposition unit (bools as 0/1).
func (r *metricRow) sample(m *Metrics) string {
	var v float64
	switch p := r.at(m).(type) {
	case *int64:
		if r.typ == counter {
			return strconv.FormatInt(*p, 10)
		}
		v = float64(*p)
	case *int:
		v = float64(*p)
	case *float64:
		v = *p
	case *bool:
		if *p {
			v = 1
		}
	}
	if r.div != 0 {
		v /= r.div
	}
	return promFloat(v)
}

// sortedKeys returns a map's keys in order, so scrapes are stable.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func promAnalyses(w io.Writer, m *Metrics) {
	promFamily(w, "vnnd_analyses_total", "Analyses served by kind.", counter)
	for _, k := range sortedKeys(m.Analyses) {
		fmt.Fprintf(w, "vnnd_analyses_total{kind=%q} %d\n", promEscape(k), m.Analyses[k])
	}
}

func promShards(w io.Writer, m *Metrics) {
	promFamily(w, "vnnd_infer_shard_batches_total", "Batch chunks per serving lane.", counter)
	for i, sh := range m.Infer.Shards {
		fmt.Fprintf(w, "vnnd_infer_shard_batches_total{lane=\"%d\"} %d\n", i, sh.Batches)
	}
	promFamily(w, "vnnd_infer_shard_inputs_total", "Inputs per serving lane.", counter)
	for i, sh := range m.Infer.Shards {
		fmt.Fprintf(w, "vnnd_infer_shard_inputs_total{lane=\"%d\"} %d\n", i, sh.Inputs)
	}
}

func promModelVersions(w io.Writer, m *Metrics) {
	promFamily(w, "vnnd_model_version_info", "Model version lifecycle state (value is always 1).", gauge)
	for _, v := range m.Registry.Versions {
		fmt.Fprintf(w, "vnnd_model_version_info{model=%q,version=\"%d\",state=%q,fingerprint=%q} 1\n",
			promEscape(v.Model), v.Version, promEscape(v.State), promEscape(v.Fingerprint))
	}
	modelCounter := func(name, help string, value func(vnnregistry.VersionMetric) int64) {
		promFamily(w, name, help, counter)
		for _, v := range m.Registry.Versions {
			fmt.Fprintf(w, "%s{model=%q,version=\"%d\"} %d\n",
				name, promEscape(v.Model), v.Version, value(v))
		}
	}
	modelCounter("vnnd_model_requests_total", "Infer requests served per model version.",
		func(v vnnregistry.VersionMetric) int64 { return v.Requests })
	modelCounter("vnnd_model_inputs_total", "Infer inputs served per model version.",
		func(v vnnregistry.VersionMetric) int64 { return v.Inputs })
	modelCounter("vnnd_model_flagged_total", "Monitor-flagged inputs per model version.",
		func(v vnnregistry.VersionMetric) int64 { return v.Flagged })
}

// promTenants renders the per-tenant accounting families. The label
// space is hard-capped upstream (obs.TenantSet), so they cannot grow
// past TenantCap+1 values.
func promTenants(w io.Writer, m *Metrics) {
	tenants := sortedKeys(m.Tenants)
	promFamily(w, "vnnd_tenant_requests_total", "Requests served per tenant and route.", counter)
	for _, t := range tenants {
		ts := m.Tenants[t]
		for _, rt := range sortedKeys(ts.Routes) {
			fmt.Fprintf(w, "vnnd_tenant_requests_total{tenant=%q,route=%q} %d\n",
				promEscape(t), promEscape(rt), ts.Routes[rt].Requests)
		}
	}
	promFamily(w, "vnnd_tenant_inputs_total", "Infer inputs served per tenant.", counter)
	for _, t := range tenants {
		fmt.Fprintf(w, "vnnd_tenant_inputs_total{tenant=%q} %d\n", promEscape(t), m.Tenants[t].Inputs)
	}
	promFamily(w, "vnnd_tenant_flagged_total", "Monitor-flagged inputs per tenant.", counter)
	for _, t := range tenants {
		fmt.Fprintf(w, "vnnd_tenant_flagged_total{tenant=%q} %d\n", promEscape(t), m.Tenants[t].Flagged)
	}
	lat := histFamilies[hTenantRequest]
	promFamily(w, lat.name, lat.help, histogram)
	for _, t := range tenants {
		ts := m.Tenants[t]
		for _, rt := range sortedKeys(ts.Routes) {
			promHistogram(w, lat.name,
				fmt.Sprintf("tenant=%q,route=%q", promEscape(t), promEscape(rt)),
				ts.Routes[rt].Latency.Snapshot())
		}
	}
	wait := histFamilies[hTenantQueueWait]
	promFamily(w, wait.name, wait.help, histogram)
	for _, t := range tenants {
		promHistogram(w, wait.name,
			fmt.Sprintf("tenant=%q", promEscape(t)), m.Tenants[t].QueueWait.Snapshot())
	}
}
