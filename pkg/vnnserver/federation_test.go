// Federation-plane tests: /v1/fleet/metrics merging two live nodes
// (exact counter sums, bucket-wise histogram merges, tenant union),
// peer-failure degradation, trace fetch-through, and the per-tenant
// cardinality cap enforced over HTTP.

package vnnserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// postVerifyKeyed POSTs a verify request with a tenant API key.
func postVerifyKeyed(t *testing.T, url, key string, body []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify with key %q: status %d", key, resp.StatusCode)
	}
}

// getFleetMetrics fetches and decodes one node's federated document.
func getFleetMetrics(t *testing.T, url string) vnnserver.FleetMetrics {
	t.Helper()
	resp, err := http.Get(url + "/v1/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet metrics: status %d", resp.StatusCode)
	}
	var fm vnnserver.FleetMetrics
	if err := json.NewDecoder(resp.Body).Decode(&fm); err != nil {
		t.Fatal(err)
	}
	return fm
}

// findHistogram locates one (name, route) entry in a wire-form list.
func findHistogram(hs []obs.HistogramJSON, name, route string) *obs.HistogramJSON {
	for i := range hs {
		if hs[i].Name == name && hs[i].Route == route {
			return &hs[i]
		}
	}
	return nil
}

// TestFleetMetricsFederation is the federation plane's arithmetic
// contract, pinned against two live nodes in one process: each node's
// effort block counts its own work only, the aggregate's counters are
// the EXACT sum of the per-node blocks, its histograms the bucket-wise
// sum, and its tenant map the label-wise union.
func TestFleetMetricsFederation(t *testing.T) {
	pred := core.NewPredictorNet(1, 10, 1, 1)
	body := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: pred.MuLatOutputs()}},
		vnnserver.QueryOptions{Tighten: true, Workers: 1}, nil)
	// What that request costs: one compile's passes, one answer's solves.
	ctx := context.Background()
	cn, err := vnn.Compile(ctx, pred.Net, vnn.LeftOccupiedRegion(), vnn.Options{Tighten: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := vnn.VerifyOne(ctx, cn, vnn.MaxOverOutputs(pred.MuLatOutputs()...))
	if err != nil {
		t.Fatal(err)
	}
	ph := cn.CompilePhases()
	wantA := [3]int64{int64(ph.EncodePasses), int64(ph.TightenPasses), int64(ref.Stats.Solves)}

	_, tsB := newTestServer(t, vnnserver.Config{NodeID: "b"})
	_, tsA := newTestServer(t, vnnserver.Config{NodeID: "a", Peers: []string{tsB.URL}})

	// A tightened verify on A only: B's effort block stays zero, and the
	// aggregate counts A's work once.
	postVerifyKeyed(t, tsA.URL, "acme", body)
	effortOf := func(m vnnserver.Metrics) [3]int64 { return [3]int64{m.EncodePasses, m.TightenPasses, m.Solves} }
	fm := getFleetMetrics(t, tsA.URL)
	if got := effortOf(fm.Nodes["b"]); got != [3]int64{} {
		t.Fatalf("idle node b reports encode/tighten/solves %v, want zeros", got)
	}
	if got := effortOf(fm.Nodes["a"]); got != wantA || wantA[0] == 0 || wantA[1] != 1 || wantA[2] == 0 {
		t.Fatalf("node a reports encode/tighten/solves %v, want its compile's and answer's %v", got, wantA)
	}
	if got := effortOf(fm.Aggregate); got != wantA {
		t.Fatalf("aggregate encode/tighten/solves %v, want node a's %v", got, wantA)
	}

	// Known traffic: 2 keyed verifies on A, 1 keyed + 1 anonymous on B.
	postVerifyKeyed(t, tsA.URL, "acme", body)
	postVerifyKeyed(t, tsB.URL, "acme", body)
	postVerifyKeyed(t, tsB.URL, "", body)

	fm = getFleetMetrics(t, tsA.URL)
	if fm.Node != "a" {
		t.Fatalf("federated document node = %q, want a", fm.Node)
	}
	if len(fm.Errors) != 0 {
		t.Fatalf("unexpected peer errors: %v", fm.Errors)
	}
	ma, okA := fm.Nodes["a"]
	mb, okB := fm.Nodes["b"]
	if !okA || !okB {
		t.Fatalf("nodes map keys = %v, want a and b", keysOf(fm.Nodes))
	}
	if ma.Queries != 2 || mb.Queries != 2 {
		t.Fatalf("per-node queries = %d/%d, want 2/2", ma.Queries, mb.Queries)
	}

	// Counters sum exactly.
	if fm.Aggregate.Queries != ma.Queries+mb.Queries {
		t.Fatalf("aggregate queries = %d, want %d", fm.Aggregate.Queries, ma.Queries+mb.Queries)
	}
	if fm.Aggregate.Cache.Misses != ma.Cache.Misses+mb.Cache.Misses {
		t.Fatalf("aggregate cache misses = %d, want %d",
			fm.Aggregate.Cache.Misses, ma.Cache.Misses+mb.Cache.Misses)
	}
	if fm.Aggregate.Scheduler.Admitted != ma.Scheduler.Admitted+mb.Scheduler.Admitted {
		t.Fatalf("aggregate scheduler admitted = %d, want %d",
			fm.Aggregate.Scheduler.Admitted, ma.Scheduler.Admitted+mb.Scheduler.Admitted)
	}

	// Histograms merge bucket-wise: every bucket of the aggregate's
	// verify-latency entry equals the sum of the per-node buckets.
	const reqDur = "vnnd_request_duration_seconds"
	ha := findHistogram(ma.Histograms, reqDur, "/v1/verify")
	hb := findHistogram(mb.Histograms, reqDur, "/v1/verify")
	hagg := findHistogram(fm.Aggregate.Histograms, reqDur, "/v1/verify")
	if ha == nil || hb == nil || hagg == nil {
		t.Fatal("verify latency histogram missing from a node or the aggregate")
	}
	if hagg.Count != 4 || hagg.Count != ha.Count+hb.Count {
		t.Fatalf("aggregate count = %d, want %d+%d = 4", hagg.Count, ha.Count, hb.Count)
	}
	if hagg.Sum != ha.Sum+hb.Sum {
		t.Fatalf("aggregate sum = %d, want %d", hagg.Sum, ha.Sum+hb.Sum)
	}
	for i := range hagg.Buckets {
		want := ha.Buckets[i] + hb.Buckets[i]
		if hagg.Buckets[i] != want {
			t.Fatalf("aggregate bucket %d = %d, want %d", i, hagg.Buckets[i], want)
		}
	}

	// Tenants merge label-wise across nodes.
	acme := fm.Aggregate.Tenants["acme"]
	if got := acme.Routes["/v1/verify"].Requests; got != 3 {
		t.Fatalf("aggregate acme verify requests = %d, want 3", got)
	}
	if got := fm.Aggregate.Tenants["anonymous"].Routes["/v1/verify"].Requests; got != 1 {
		t.Fatalf("aggregate anonymous verify requests = %d, want 1", got)
	}
	if got := acme.Routes["/v1/verify"].Latency.Count; got != 3 {
		t.Fatalf("aggregate acme latency count = %d, want 3", got)
	}

	// The Prometheus rendering of the aggregate negotiates like /metrics.
	resp, err := http.Get(tsA.URL + "/v1/fleet/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom federation Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "vnnd_queries_total 4") {
		t.Fatal("prom federation rendering missing the summed vnnd_queries_total 4")
	}
	if !strings.Contains(string(raw), `vnnd_tenant_requests_total{tenant="acme",route="/v1/verify"} 3`) {
		t.Fatal("prom federation rendering missing the merged acme tenant series")
	}
}

// TestFleetMetricsPeerDown: a peer whose snapshot cannot be used — it
// is unreachable, or it reports the asking node's own id (two daemons
// started with one -node-id) — degrades to an entry in "errors"; the
// local block and the aggregate still render, from the local node alone.
func TestFleetMetricsPeerDown(t *testing.T) {
	twin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(vnnserver.Metrics{Node: "solo", Queries: 5})
	}))
	defer twin.Close()
	for _, tc := range []struct{ name, peer, wantErr string }{
		{"unreachable", "http://127.0.0.1:1", ""}, // reserved port, nothing listens
		{"duplicate node id", twin.URL, "duplicate node id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, vnnserver.Config{NodeID: "solo", Peers: []string{tc.peer}})
			fm := getFleetMetrics(t, ts.URL)
			if len(fm.Nodes) != 1 || fm.Nodes["solo"].Node != "solo" {
				t.Fatalf("nodes = %v, want just solo", keysOf(fm.Nodes))
			}
			if fm.Nodes["solo"].Queries != 0 || fm.Aggregate.Queries != 0 {
				t.Fatalf("local block queries = %d, aggregate = %d, want the local node's 0 in both",
					fm.Nodes["solo"].Queries, fm.Aggregate.Queries)
			}
			if msg := fm.Errors[tc.peer]; msg == "" || !strings.Contains(msg, tc.wantErr) {
				t.Fatalf("errors[%s] = %q, want it to mention %q", tc.peer, msg, tc.wantErr)
			}
		})
	}
}

// TestTraceFetchThrough: a trace recorded only on node B resolves
// through node A's /debug/traces/{id} by one-hop peer fetch — by W3C
// trace id and by job id — while ?local=1 stays a 404.
func TestTraceFetchThrough(t *testing.T) {
	pred := core.NewPredictorNet(1, 10, 1, 1)
	body := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: pred.MuLatOutputs()}},
		vnnserver.QueryOptions{Tighten: true, Workers: 1}, nil)

	_, tsB := newTestServer(t, vnnserver.Config{NodeID: "b"})
	_, tsA := newTestServer(t, vnnserver.Config{NodeID: "a", Peers: []string{tsB.URL}})

	var vr vnnserver.VerifyResponse
	if status := postVerify(t, tsB.URL, body, &vr); status != http.StatusOK {
		t.Fatalf("verify on b: status %d", status)
	}
	local := getTrace(t, tsB.URL, vr.ID)
	if local.TraceID == "" || local.Node != "b" {
		t.Fatalf("trace on b: trace_id=%q node=%q", local.TraceID, local.Node)
	}

	for _, id := range []string{local.TraceID, vr.ID} {
		through := getTrace(t, tsA.URL, id)
		if through.TraceID != local.TraceID || through.Node != "b" {
			t.Fatalf("fetch-through by %q: trace_id=%q node=%q, want %q on b",
				id, through.TraceID, through.Node, local.TraceID)
		}
	}

	// The loop guard: ?local=1 keeps A from asking its peers.
	resp, err := http.Get(tsA.URL + "/debug/traces/" + local.TraceID + "?local=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("?local=1 fetch on a: status %d, want 404", resp.StatusCode)
	}
}

// TestTenantCardinalityHTTP pins the cap end to end: many distinct
// API keys against a TenantCap-4 server leave exactly cap+1 label
// values in /metrics, with every request accounted for.
func TestTenantCardinalityHTTP(t *testing.T) {
	pred := core.NewPredictorNet(1, 10, 1, 1)
	body := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: pred.MuLatOutputs()}},
		vnnserver.QueryOptions{Tighten: true, Workers: 1}, nil)

	const cap = 4
	srv, ts := newTestServer(t, vnnserver.Config{TenantCap: cap})
	const total = 12
	for i := 0; i < total; i++ {
		postVerifyKeyed(t, ts.URL, fmt.Sprintf("key-%02d", i), body)
	}

	m := srv.Metrics()
	if len(m.Tenants) != cap+1 {
		t.Fatalf("tenant labels = %d (%v), want cap+1 = %d", len(m.Tenants), keysOf(m.Tenants), cap+1)
	}
	other, ok := m.Tenants["other"]
	if !ok {
		t.Fatalf("overflow tenant missing: %v", keysOf(m.Tenants))
	}
	var sum int64
	for _, tn := range m.Tenants {
		sum += tn.Routes["/v1/verify"].Requests
	}
	if sum != total {
		t.Fatalf("tenant-attributed requests = %d, want %d", sum, total)
	}
	if got := other.Routes["/v1/verify"].Requests; got != total-cap {
		t.Fatalf("overflow requests = %d, want %d", got, total-cap)
	}
	// Queue waits are attributed too: every request waited (possibly
	// zero time) exactly once.
	var waits int64
	for _, tn := range m.Tenants {
		waits += tn.QueueWait.Count
	}
	if waits != total {
		t.Fatalf("tenant queue-wait observations = %d, want %d", waits, total)
	}
}

// keysOf lists a string-keyed map's keys for failure messages.
func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
