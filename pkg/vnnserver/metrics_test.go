// The metric table's contract (see metricTable in metrics.go): nothing
// in the Metrics document is undeclared, the Prometheus rendering of a
// fully populated document is byte-stable, and the fleet merge follows
// each row's rule.

package vnnserver

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/pkg/vnnfleet"
	"repro/pkg/vnnregistry"
)

// goldenHist builds a wire-form histogram with a few populated buckets.
func goldenHist(name, route string, scale float64, seed int64) obs.HistogramJSON {
	h := obs.HistogramJSON{Name: name, Route: route, Scale: scale, Buckets: make([]int64, obs.NumBuckets+1)}
	for i, k := range []int{0, 3, 17, 30, obs.NumBuckets} {
		c := seed + int64(i)
		h.Buckets[k] = c
		h.Count += c
		h.Sum += c * (int64(1)<<uint(k%40) + seed)
	}
	return h
}

// goldenDoc is a hand-built, fully populated Metrics document: every
// scalar distinct and non-zero, two analysis kinds, two shards, two
// model versions, two tenants, two histogram families.
func goldenDoc() Metrics {
	lastSync := 12.5
	tenant := func(seed int64) obs.TenantSnapshot {
		const lat = "vnnd_tenant_request_duration_seconds"
		return obs.TenantSnapshot{
			Routes: map[string]obs.TenantRouteSnapshot{
				"/v1/verify": {Requests: seed + 1, Latency: goldenHist(lat, "/v1/verify", 1e-9, seed+2)},
				"/v1/infer":  {Requests: seed + 3, Latency: goldenHist(lat, "/v1/infer", 1e-9, seed+4)},
			},
			Inputs:    seed + 5,
			Flagged:   seed + 6,
			QueueWait: goldenHist("vnnd_tenant_queue_wait_seconds", "", 1e-9, seed+7),
		}
	}
	return Metrics{
		Node:     "golden",
		UptimeMS: 98765.4321,
		Build:    BuildInfo{Version: `v1.2.3 "quoted"`, Revision: "abc123", Time: "2026-01-02T03:04:05Z", Go: "go1.22.0"},
		Draining: true,
		Cache:    CacheStats{Hits: 101, Misses: 102, Evictions: 103, Size: 104, Capacity: 105, Bytes: 10600000},
		Scheduler: SchedulerStats{
			Admitted: 201, Active: 202, Queued: 203, Rejected: 204, Completed: 205,
			MaxConcurrent: 206, QueueDepth: 207, Cores: 208,
		},
		Queries:         301,
		AnalyzeRequests: 302,
		Analyses:        map[string]int64{"coverage": 303, "quant_sweep": 304},
		Infer: InferStats{
			Requests: 401, Inputs: 402, Flagged: 403, Monitors: 404, Workloads: 405,
			Shards: []InferShardStats{{Batches: 406, Inputs: 407}, {Batches: 408, Inputs: 409}},
		},
		Fleet: vnnfleet.Stats{
			Rounds: 501, EntriesPulled: 504,
			EntriesPushed: 505, PullRejected: 506, PullSkipped: 507,
			Peers: []vnnfleet.PeerStats{{URL: "http://peer:1", Rounds: 508, Failures: 509, LastSyncMS: &lastSync}},
		},
		Registry: vnnregistry.Metrics{
			Ready:   true,
			Models:  601,
			ByState: map[string]int{"live": 1, "retired": 1},
			Versions: []vnnregistry.VersionMetric{
				{Model: "lane\nkeep", Version: 1, State: "retired", Fingerprint: "vnn1-aa", Requests: 602, Inputs: 603, Flagged: 604},
				{Model: "lane\nkeep", Version: 2, State: "live", Fingerprint: "vnn1-bb", Requests: 605, Inputs: 606, Flagged: 607},
			},
		},
		Nodes:         701,
		LPPivots:      702,
		EncodePasses:  703,
		TightenPasses: 704,
		Solves:        705,
		Runtime:       obs.RuntimeStats{Goroutines: 801, HeapInuseBytes: 80200000, GCPauseP99MS: 0.803, UptimeSeconds: 98.7654321},
		Tenants:       map[string]obs.TenantSnapshot{"acme": tenant(900), "other": tenant(950)},
		Histograms: []obs.HistogramJSON{
			goldenHist("vnnd_request_duration_seconds", "/v1/verify", 1e-9, 1000),
			goldenHist("vnnd_request_duration_seconds", "/v1/infer", 1e-9, 1010),
			goldenHist("vnnd_infer_batch_inputs", "", 1, 1020),
		},
	}
}

// dropFamily removes one family's HELP/TYPE header and samples from an
// exposition document.
func dropFamily(text, name string) string {
	var out []string
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, "# HELP "+name+" ") ||
			strings.HasPrefix(line, "# TYPE "+name+" ") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "")
}

// TestPromGolden: testdata/metrics.prom is goldenDoc rendered by the
// hand-written renderer this table replaced (PR 15's writePromFrom).
// The table-driven renderer must reproduce it byte for byte; the only
// family it adds is vnnd_scheduler_admitted, which the old renderer
// forgot.
func TestPromGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writePromFrom(&buf, goldenDoc())
	got := buf.String()
	if !strings.Contains(got, "# TYPE vnnd_scheduler_admitted gauge\nvnnd_scheduler_admitted 201\n") {
		t.Error("rendering lacks the vnnd_scheduler_admitted family")
	}
	got = dropFamily(got, "vnnd_scheduler_admitted")
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got  %q\n want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("rendering has %d lines, golden %d", len(gl), len(wl))
	}
}

// doubleHist returns h merged with itself, written out by hand.
func doubleHist(h obs.HistogramJSON) obs.HistogramJSON {
	out := h
	out.Buckets = make([]int64, len(h.Buckets))
	for i, c := range h.Buckets {
		out.Buckets[i] = 2 * c
	}
	out.Count, out.Sum = 2*h.Count, 2*h.Sum
	return out
}

// doubledDoc is what merging goldenDoc with itself must produce, field
// by field and without consulting the table: counters and additive
// gauges double, worst-case gauges keep their value, facts about one
// node (identity, capacities, lanes, peers, registry, draining) are
// left zero.
func doubledDoc() Metrics {
	m := goldenDoc()
	want := Metrics{
		UptimeMS: m.UptimeMS,
		Cache: CacheStats{
			Hits: 2 * m.Cache.Hits, Misses: 2 * m.Cache.Misses, Evictions: 2 * m.Cache.Evictions,
			Size: 2 * m.Cache.Size, Bytes: 2 * m.Cache.Bytes,
		},
		Scheduler: SchedulerStats{
			Admitted: 2 * m.Scheduler.Admitted, Active: 2 * m.Scheduler.Active, Queued: 2 * m.Scheduler.Queued,
			Rejected: 2 * m.Scheduler.Rejected, Completed: 2 * m.Scheduler.Completed,
		},
		Queries:         2 * m.Queries,
		AnalyzeRequests: 2 * m.AnalyzeRequests,
		Analyses:        map[string]int64{"coverage": 2 * 303, "quant_sweep": 2 * 304},
		Infer: InferStats{
			Requests: 2 * m.Infer.Requests, Inputs: 2 * m.Infer.Inputs, Flagged: 2 * m.Infer.Flagged,
			Monitors: 2 * m.Infer.Monitors, Workloads: 2 * m.Infer.Workloads,
		},
		Fleet: vnnfleet.Stats{
			Rounds: 2 * m.Fleet.Rounds, EntriesPulled: 2 * m.Fleet.EntriesPulled,
			EntriesPushed: 2 * m.Fleet.EntriesPushed, PullRejected: 2 * m.Fleet.PullRejected,
			PullSkipped: 2 * m.Fleet.PullSkipped,
		},
		Nodes:         2 * m.Nodes,
		LPPivots:      2 * m.LPPivots,
		EncodePasses:  2 * m.EncodePasses,
		TightenPasses: 2 * m.TightenPasses,
		Solves:        2 * m.Solves,
		Runtime: obs.RuntimeStats{
			Goroutines: 2 * m.Runtime.Goroutines, HeapInuseBytes: 2 * m.Runtime.HeapInuseBytes,
			GCPauseP99MS: m.Runtime.GCPauseP99MS, UptimeSeconds: m.Runtime.UptimeSeconds,
		},
		Tenants: map[string]obs.TenantSnapshot{},
	}
	for label, ts := range m.Tenants {
		d := obs.TenantSnapshot{
			Routes: map[string]obs.TenantRouteSnapshot{},
			Inputs: 2 * ts.Inputs, Flagged: 2 * ts.Flagged, QueueWait: doubleHist(ts.QueueWait),
		}
		for route, r := range ts.Routes {
			d.Routes[route] = obs.TenantRouteSnapshot{Requests: 2 * r.Requests, Latency: doubleHist(r.Latency)}
		}
		want.Tenants[label] = d
	}
	for _, h := range m.Histograms {
		want.Histograms = append(want.Histograms, doubleHist(h))
	}
	return want
}

// TestMergeMetricsDoubles pins the fleet merge against the hand-doubled
// document, compared in wire form (what /v1/fleet/metrics serves).
func TestMergeMetricsDoubles(t *testing.T) {
	var agg Metrics
	mergeMetrics(&agg, goldenDoc())
	mergeMetrics(&agg, goldenDoc())
	got, err := json.MarshalIndent(agg, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(doubledDoc(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("aggregate JSON line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("aggregate JSON has %d lines, want %d", len(gl), len(wl))
	}
}

// perNodeLeaves are the Metrics paths that are deliberately not table
// rows: identity and capacity facts about one node, and structured
// blocks with their own renderers and merges. A path covers itself and
// everything below it.
var perNodeLeaves = []string{
	"node", "build", "cache.capacity",
	"scheduler.max_concurrent", "scheduler.queue_depth", "scheduler.cores",
	"analyses", "infer.shards", "fleet.peers", "registry.by_state", "registry.versions",
	"tenants", "histograms",
}

// leafPaths walks a struct type's JSON field paths down to non-struct
// fields.
func leafPaths(t reflect.Type, prefix string, out map[string]bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := strings.Split(f.Tag.Get("json"), ",")[0]
		if f.Type.Kind() == reflect.Struct {
			leafPaths(f.Type, prefix+name+".", out)
			continue
		}
		out[prefix+name] = true
	}
}

// pathsEqual lists the dotted paths of the JSON leaves equal to want.
func pathsEqual(doc any, prefix string, want any) []string {
	obj, ok := doc.(map[string]any)
	if !ok {
		if doc == want {
			return []string{strings.TrimSuffix(prefix, ".")}
		}
		return nil
	}
	var out []string
	for k, v := range obj {
		out = append(out, pathsEqual(v, prefix+k+".", want)...)
	}
	return out
}

// rowPath finds the JSON path a row's accessor points at: write through
// the pointer into a zero document, encode it, look for the value.
func rowPath(t *testing.T, r metricRow) string {
	t.Helper()
	var m Metrics
	var want any = 7.0
	switch p := r.at(&m).(type) {
	case *int64:
		*p = 7
	case *int:
		*p = 7
	case *float64:
		*p = 7
	case *bool:
		*p, want = true, true
	default:
		t.Fatalf("row %s: accessor returns %T", r.prom, p)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	paths := pathsEqual(doc, "", want)
	if len(paths) != 1 {
		t.Fatalf("row %s: accessor reaches JSON leaves %v, want exactly one", r.prom, paths)
	}
	return paths[0]
}

// TestMetricTableComplete: every leaf of the Metrics document is a
// table row or on the short per-node list, no leaf has two rows, and
// every row's path is in the metrics-keys.txt contract. A field added
// without a declaration fails here.
func TestMetricTableComplete(t *testing.T) {
	rows := map[string]bool{}
	for _, r := range metricTable {
		path := rowPath(t, r)
		if rows[path] {
			t.Errorf("%s has two table rows", path)
		}
		rows[path] = true
		if (r.prom == "") != (r.help == "") || (r.prom == "") != (r.typ == "") {
			t.Errorf("row %s: family name, help and type go together", path)
		}
		if _, isBool := r.at(&Metrics{}).(*bool); isBool && r.merge != perNode {
			t.Errorf("row %s: a bool has no fleet-wide merge", path)
		}
	}

	leaves := map[string]bool{}
	leafPaths(reflect.TypeOf(Metrics{}), "", leaves)
	for path := range leaves {
		covered := false
		for _, p := range perNodeLeaves {
			covered = covered || path == p || strings.HasPrefix(path, p+".")
		}
		if rows[path] == covered {
			t.Errorf("Metrics leaf %s: table row %v, per-node list %v — want exactly one", path, rows[path], covered)
		}
	}

	fixture, err := os.ReadFile(filepath.Join("..", "..", "cmd", "vnnd", "testdata", "metrics-keys.txt"))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, line := range strings.Split(string(fixture), "\n") {
		keys[strings.TrimSpace(line)] = true
	}
	for path := range rows {
		if !keys[path] {
			t.Errorf("table row %s is not listed in cmd/vnnd/testdata/metrics-keys.txt", path)
		}
	}
}
