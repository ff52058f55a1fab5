// Observability-plane tests: the span tree a synchronous request leaves
// behind, the Prometheus text exposition round-trip, and scrape
// consistency under concurrent traffic (the last one is a race-detector
// target — CI runs this package under -race).

package vnnserver_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// getTrace fetches one trace by id, failing the test on any non-200.
func getTrace(t *testing.T, url, id string) obs.TraceJSON {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /debug/traces/%s: %d %s", id, resp.StatusCode, body)
	}
	var tr obs.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestVerifyTraceSpanTree is the flight recorder's request-level
// contract: a synchronous /v1/verify leaves a trace — addressable by the
// job id the response echoes — whose root decomposes into the queue,
// cache (with a compile child on a miss) and solve phases, with
// non-negative durations that sum to at most the request wall time.
func TestVerifyTraceSpanTree(t *testing.T) {
	pred := core.NewPredictorNet(1, 10, 1, 1)
	_, ts := newTestServer(t, vnnserver.Config{})
	// Two properties, so the solve span's totals are a sum (checked below).
	maxLat := vnn.PropertySpec{Kind: "max", Outputs: pred.MuLatOutputs()}
	body := verifyBody(t, pred.Net, []vnn.PropertySpec{maxLat, maxLat},
		vnnserver.QueryOptions{Tighten: true, Workers: 1}, nil)

	var vr vnnserver.VerifyResponse
	if status := postVerify(t, ts.URL, body, &vr); status != http.StatusOK {
		t.Fatalf("verify: status %d", status)
	}

	tr := getTrace(t, ts.URL, vr.ID)
	if tr.ID != vr.ID || tr.Route != "/v1/verify" {
		t.Fatalf("trace id/route = %q/%q, want %q//v1/verify", tr.ID, tr.Route, vr.ID)
	}
	if tr.Root == nil {
		t.Fatal("trace has no root span")
	}
	if tr.Root.DurationUS <= 0 {
		t.Fatalf("root duration %v us, want > 0", tr.Root.DurationUS)
	}
	if tr.Root.DurationUS > tr.DurationMS*1000+1 {
		t.Fatalf("root (%v us) outlives its trace (%v ms)", tr.Root.DurationUS, tr.DurationMS)
	}

	// The request phases appear in submission order, and — the internal
	// consistency bound — their durations sum to at most the request
	// wall time: queue, cache and solve do not overlap.
	var names []string
	var sum float64
	for _, c := range tr.Root.Children {
		names = append(names, c.Name)
		if c.DurationUS < 0 {
			t.Fatalf("span %q has negative duration %v", c.Name, c.DurationUS)
		}
		if c.StartUS < 0 || c.StartUS+c.DurationUS > tr.Root.DurationUS+1 {
			t.Fatalf("span %q [%v, +%v] escapes root window [0, %v]",
				c.Name, c.StartUS, c.DurationUS, tr.Root.DurationUS)
		}
		sum += c.DurationUS
	}
	if want := []string{"queue", "cache", "solve"}; !slicesEqual(names, want) {
		t.Fatalf("root children %v, want %v", names, want)
	}
	if sum > tr.Root.DurationUS+1 { // 1us slack for float rounding
		t.Fatalf("phase durations sum to %v us > request wall %v us", sum, tr.Root.DurationUS)
	}

	// First request: a cache miss, so the cache span carries the compile.
	cache := tr.Root.Children[1]
	if hit, ok := cache.Attrs["hit"].(bool); !ok || hit {
		t.Fatalf("cache span attrs = %v, want hit=false on first request", cache.Attrs)
	}
	if len(cache.Children) != 1 || cache.Children[0].Name != "compile" {
		t.Fatalf("cache children = %+v, want one compile span", cache.Children)
	}
	compile := cache.Children[0]
	for _, sub := range compile.Children {
		if sub.Name != "tighten" && sub.Name != "encode" {
			t.Fatalf("unexpected compile child %q", sub.Name)
		}
		if sub.DurationUS < 0 || sub.DurationUS > compile.DurationUS+1 {
			t.Fatalf("compile child %q duration %v us escapes compile %v us",
				sub.Name, sub.DurationUS, compile.DurationUS)
		}
	}

	// The solve span carries the branch-and-bound effort attrs.
	solve := tr.Root.Children[2]
	if _, ok := solve.Attrs["nodes"]; !ok {
		t.Fatalf("solve span attrs = %v, want nodes", solve.Attrs)
	}
	// ...and the LP engine's account of them: every node is one solve,
	// warm or cold.
	attr := func(k string) float64 { v, _ := solve.Attrs[k].(float64); return v }
	if got := attr("lp_warm_solves") + attr("lp_cold_solves"); got == 0 || got != attr("nodes") {
		t.Fatalf("solve span attrs = %v: warm+cold solves %v, nodes %v", solve.Attrs, got, attr("nodes"))
	}
	// ...and the shape of the tree: present even when the root settles it
	// (depth 0), and never more open nodes than nodes.
	if _, ok := solve.Attrs["bb_max_depth"]; !ok || attr("bb_open_high_water") > attr("nodes") {
		t.Fatalf("solve span attrs = %v, want bb_max_depth and bb_open_high_water <= nodes", solve.Attrs)
	}
	// ...and how far into the search its first incumbent came.
	if _, ok := solve.Attrs["bb_first_incumbent_node"]; !ok || attr("bb_first_incumbent_node") > attr("nodes") {
		t.Fatalf("solve span attrs = %v, want bb_first_incumbent_node <= nodes", solve.Attrs)
	}
	if _, ok := solve.Attrs["bb_jump_nodes"]; !ok || attr("bb_jump_nodes") > attr("nodes") || attr("bb_jump_pivots") > attr("lp_pivots") {
		t.Fatalf("solve span attrs = %v, want bb_jump_nodes <= nodes and bb_jump_pivots <= lp_pivots", solve.Attrs)
	}
	// ...and its work totals are the reply's per-result stats summed.
	var nodes, pivots float64
	for _, r := range vr.Report.Results {
		nodes, pivots = nodes+float64(r.Stats.Nodes), pivots+float64(r.Stats.LPPivots)
	}
	if attr("nodes") != nodes || attr("lp_pivots") != pivots {
		t.Fatalf("solve span nodes/lp_pivots %v/%v, reply results sum to %v/%v", attr("nodes"), attr("lp_pivots"), nodes, pivots)
	}

	// A second identical request hits the cache: no compile child.
	var vr2 vnnserver.VerifyResponse
	if status := postVerify(t, ts.URL, body, &vr2); status != http.StatusOK {
		t.Fatalf("second verify: status %d", status)
	}
	tr2 := getTrace(t, ts.URL, vr2.ID)
	cache2 := tr2.Root.Children[1]
	if hit, _ := cache2.Attrs["hit"].(bool); !hit {
		t.Fatalf("second request cache attrs = %v, want hit=true", cache2.Attrs)
	}
	if len(cache2.Children) != 0 {
		t.Fatalf("cache hit grew a compile span: %+v", cache2.Children)
	}

	// The compile span is this compile's own account: one tightening pass
	// and one prefix encoding per hidden layer plus the final one above;
	// an untightened compile of the same network afterwards reports no
	// tightening at all, whatever the process did before it.
	passes := func(sp *obs.SpanJSON) [2]float64 {
		tp, _ := sp.Attrs["tighten_passes"].(float64)
		ep, _ := sp.Attrs["encode_passes"].(float64)
		return [2]float64{tp, ep}
	}
	if got, want := passes(compile), [2]float64{1, float64(len(pred.Net.Layers))}; got != want {
		t.Fatalf("tightened compile span passes (tighten, encode) = %v, want %v", got, want)
	}
	plain := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: pred.MuLatOutputs()}},
		vnnserver.QueryOptions{Workers: 1}, nil)
	var vr3 vnnserver.VerifyResponse
	if status := postVerify(t, ts.URL, plain, &vr3); status != http.StatusOK {
		t.Fatalf("untightened verify: status %d", status)
	}
	cache3 := getTrace(t, ts.URL, vr3.ID).Root.Children[1]
	if len(cache3.Children) != 1 || cache3.Children[0].Name != "compile" {
		t.Fatalf("untightened request: cache children = %+v, want one compile span", cache3.Children)
	}
	compile3 := cache3.Children[0]
	if got, want := passes(compile3), [2]float64{0, 1}; got != want {
		t.Fatalf("untightened compile span passes (tighten, encode) = %v, want %v", got, want)
	}
	for _, sub := range compile3.Children {
		if sub.Name == "tighten" && sub.DurationUS != 0 {
			t.Fatalf("untightened compile has a %v us tighten child", sub.DurationUS)
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels string // raw label body without braces, "" when unlabeled
	value  float64
}

var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (\+Inf|-Inf|NaN|-?[0-9.eE+-]+)$`)

// parseProm parses a text exposition document, failing the test on any
// line that is neither a well-formed comment nor a sample.
func parseProm(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = map[string]string{}
	lastHelp := ""
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			lastHelp = strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge" && parts[1] != "histogram") {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if parts[0] != lastHelp {
				t.Fatalf("TYPE %s not preceded by its HELP (last HELP %q)", parts[0], lastHelp)
			}
			types[parts[0]] = parts[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unexpected comment line: %q", line)
		default:
			m := promLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparseable sample line: %q", line)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			samples = append(samples, promSample{name: m[1], labels: m[2], value: v})
		}
	}
	return types, samples
}

// histFamily collects one histogram series' parsed buckets.
type histFamily struct {
	buckets []struct {
		le  float64
		cum float64
	}
	sum, count float64
	haveCount  bool
}

// TestPromExpositionRoundTrip scrapes /metrics in the Prometheus text
// format after known traffic and re-parses it: every family must be
// well-formed, every histogram's buckets cumulative with a terminal
// +Inf equal to _count, and the counters must reflect the traffic. The
// default (no Accept header) rendering must remain JSON.
func TestPromExpositionRoundTrip(t *testing.T) {
	pred := core.NewPredictorNet(1, 10, 1, 1)
	_, ts := newTestServer(t, vnnserver.Config{})

	vbody := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: pred.MuLatOutputs()}},
		vnnserver.QueryOptions{Tighten: true, Workers: 1}, nil)
	if status := postVerify(t, ts.URL, vbody, nil); status != http.StatusOK {
		t.Fatalf("verify: status %d", status)
	}
	net := inferNet(7)
	rng := rand.New(rand.NewSource(7))
	ibody := inferBody(t, net, randRows(rng, 2, net.InputDim(), 1), nil)
	if status := postInfer(t, ts.URL, ibody, nil); status != http.StatusOK {
		t.Fatalf("infer: status %d", status)
	}

	// Default stays JSON.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default /metrics Content-Type = %q, want JSON", ct)
	}
	resp.Body.Close()

	// The negotiated scrape.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom /metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseProm(t, string(raw))

	if types["vnnd_request_duration_seconds"] != "histogram" {
		t.Fatalf("vnnd_request_duration_seconds type = %q", types["vnnd_request_duration_seconds"])
	}
	flat := map[string]float64{}
	hists := map[string]*histFamily{}
	for _, s := range samples {
		key := s.name
		if s.labels != "" {
			key += "{" + s.labels + "}"
		}
		flat[key] = s.value
		base, series, isBucket := s.name, s.labels, false
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			base, isBucket = strings.TrimSuffix(s.name, "_bucket"), true
			series = regexp.MustCompile(`,?le="[^"]*"`).ReplaceAllString(s.labels, "")
		case strings.HasSuffix(s.name, "_sum"):
			base = strings.TrimSuffix(s.name, "_sum")
		case strings.HasSuffix(s.name, "_count"):
			base = strings.TrimSuffix(s.name, "_count")
		default:
			continue
		}
		if types[base] != "histogram" {
			continue
		}
		h := hists[base+"|"+series]
		if h == nil {
			h = &histFamily{}
			hists[base+"|"+series] = h
		}
		switch {
		case isBucket:
			leStr := regexp.MustCompile(`le="([^"]*)"`).FindStringSubmatch(s.labels)[1]
			le := math.Inf(1)
			if leStr != "+Inf" {
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					t.Fatalf("bad le %q: %v", leStr, err)
				}
			}
			h.buckets = append(h.buckets, struct{ le, cum float64 }{le, s.value})
		case strings.HasSuffix(s.name, "_sum"):
			h.sum = s.value
		default:
			h.count, h.haveCount = s.value, true
		}
	}

	// Known traffic: one verify (one compile) and one 2-input infer
	// batch (unmonitored, so it compiles nothing).
	for key, want := range map[string]float64{
		"vnnd_queries_total":        1,
		"vnnd_infer_requests_total": 1,
		"vnnd_infer_inputs_total":   2,
		"vnnd_cache_misses_total":   1,
	} {
		if got := flat[key]; got != want {
			t.Fatalf("%s = %v, want %v", key, got, want)
		}
	}
	// Every admission gauge of the JSON document is scraped too.
	for _, name := range []string{"vnnd_scheduler_admitted", "vnnd_scheduler_active", "vnnd_scheduler_queued"} {
		if _, ok := flat[name]; !ok || types[name] != "gauge" {
			t.Fatalf("%s: sample present %v, type %q; want a gauge", name, ok, types[name])
		}
	}
	if !anyBuildInfo(samples) {
		t.Fatal("no vnnd_build_info sample")
	}

	if len(hists) == 0 {
		t.Fatal("no histogram series parsed")
	}
	for key, h := range hists {
		sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
		if len(h.buckets) == 0 || !math.IsInf(h.buckets[len(h.buckets)-1].le, 1) {
			t.Fatalf("%s: no +Inf bucket", key)
		}
		prev := 0.0
		for _, b := range h.buckets {
			if b.cum < prev {
				t.Fatalf("%s: bucket le=%v decreases (%v -> %v)", key, b.le, prev, b.cum)
			}
			prev = b.cum
		}
		if !h.haveCount {
			t.Fatalf("%s: missing _count", key)
		}
		if inf := h.buckets[len(h.buckets)-1].cum; inf != h.count {
			t.Fatalf("%s: +Inf bucket %v != _count %v", key, inf, h.count)
		}
		if h.count > 0 && h.sum < 0 {
			t.Fatalf("%s: negative _sum %v with count %v", key, h.sum, h.count)
		}
	}
	verifyLat := hists[`vnnd_request_duration_seconds|route="/v1/verify"`]
	if verifyLat == nil || verifyLat.count != 1 {
		t.Fatalf("verify latency series = %+v, want count 1", verifyLat)
	}
	if verifyLat.sum <= 0 {
		t.Fatalf("verify latency sum = %v, want > 0", verifyLat.sum)
	}

	// Per-tenant accounting: keyless traffic lands on the "anonymous"
	// tenant, with the same counts as the global counters.
	if types["vnnd_tenant_request_duration_seconds"] != "histogram" {
		t.Fatalf("vnnd_tenant_request_duration_seconds type = %q", types["vnnd_tenant_request_duration_seconds"])
	}
	for key, want := range map[string]float64{
		`vnnd_tenant_requests_total{tenant="anonymous",route="/v1/verify"}`: 1,
		`vnnd_tenant_requests_total{tenant="anonymous",route="/v1/infer"}`:  1,
		`vnnd_tenant_inputs_total{tenant="anonymous"}`:                      2,
		`vnnd_tenant_flagged_total{tenant="anonymous"}`:                     0,
	} {
		if got := flat[key]; got != want {
			t.Fatalf("%s = %v, want %v", key, got, want)
		}
	}
	tenantLat := hists[`vnnd_tenant_request_duration_seconds|tenant="anonymous",route="/v1/verify"`]
	if tenantLat == nil || tenantLat.count != 1 {
		t.Fatalf("anonymous verify latency series = %+v, want count 1", tenantLat)
	}

	// Runtime gauges ride the same scrape.
	if flat["vnnd_goroutines"] < 1 {
		t.Fatalf("vnnd_goroutines = %v, want >= 1", flat["vnnd_goroutines"])
	}
	if flat["vnnd_heap_inuse_bytes"] <= 0 {
		t.Fatalf("vnnd_heap_inuse_bytes = %v, want > 0", flat["vnnd_heap_inuse_bytes"])
	}
}

func anyBuildInfo(samples []promSample) bool {
	for _, s := range samples {
		if s.name == "vnnd_build_info" && s.value == 1 &&
			strings.Contains(s.labels, `version="`) && strings.Contains(s.labels, `go="go`) {
			return true
		}
	}
	return false
}

// TestMetricsScrapeConsistentUnderTraffic hammers the warm by-fingerprint
// infer path from several clients while scraping /metrics (both
// renderings) and /debug/traces concurrently. Under -race this is the
// data-race probe for the whole observability plane; the assertions per
// JSON scrape are the documented snapshot guarantee — every batch carries
// exactly 2 inputs, so a snapshot may never show fewer than 2×requests
// inputs, neither server-wide nor for the anonymous tenant.
func TestMetricsScrapeConsistentUnderTraffic(t *testing.T) {
	net := inferNet(11)
	_, ts := newTestServer(t, vnnserver.Config{TraceRing: 32})
	rng := rand.New(rand.NewSource(11))
	inputs := randRows(rng, 2, net.InputDim(), 1)

	var full vnnserver.InferResponse
	if status := postInfer(t, ts.URL, inferBody(t, net, inputs, nil), &full); status != http.StatusOK {
		t.Fatalf("priming infer: status %d", status)
	}
	warm, err := json.Marshal(vnnserver.InferRequest{Fingerprint: full.Fingerprint, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, writers+3)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(string(warm)))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("infer status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	scrape := func(path string) {
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				errc <- err
				return
			}
			if path == "/metrics" {
				var m vnnserver.Metrics
				if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
					resp.Body.Close()
					errc <- err
					return
				}
				if m.Infer.Inputs < 2*m.Infer.Requests {
					resp.Body.Close()
					errc <- fmt.Errorf("snapshot skew: %d requests but only %d inputs", m.Infer.Requests, m.Infer.Inputs)
					return
				}
				tn := m.Tenants[obs.AnonymousTenant]
				if req := tn.Routes["/v1/infer"].Requests; tn.Inputs < 2*req {
					resp.Body.Close()
					errc <- fmt.Errorf("tenant snapshot skew: %d requests but only %d inputs", req, tn.Inputs)
					return
				}
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
				return
			}
		}
	}
	var readers sync.WaitGroup
	for _, path := range []string{"/metrics", "/metrics?format=prometheus", "/debug/traces"} {
		readers.Add(1)
		go func(p string) {
			defer readers.Done()
			scrape(p)
		}(path)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	m := serverMetrics(t, ts.URL)
	if want := int64(writers*perWriter + 1); m.Infer.Requests != want {
		t.Fatalf("final requests = %d, want %d", m.Infer.Requests, want)
	}
	if want := int64(2 * (writers*perWriter + 1)); m.Infer.Inputs != want {
		t.Fatalf("final inputs = %d, want %d", m.Infer.Inputs, want)
	}
}
