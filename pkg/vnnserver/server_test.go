package vnnserver_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// newTestServer boots a Server behind an httptest listener.
func newTestServer(t *testing.T, cfg vnnserver.Config) (*vnnserver.Server, *httptest.Server) {
	t.Helper()
	srv := vnnserver.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// verifyBody marshals a verify request for the given predictor.
func verifyBody(t *testing.T, net *vnn.Network, props []vnn.PropertySpec, opts vnnserver.QueryOptions, wait *bool) []byte {
	t.Helper()
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(vnnserver.VerifyRequest{
		Network:    netJSON,
		Region:     vnn.RegionSpec{Name: "left_occupied"},
		Properties: props,
		Options:    opts,
		Wait:       wait,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postVerify POSTs a verify request and decodes the response into out,
// returning the HTTP status.
func postVerify(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", resp.Status, err)
		}
	}
	return resp.StatusCode
}

// TestServer64ConcurrentIdenticalOneCompile is the subsystem's acceptance
// contract: 64 concurrent identical requests against vnnd perform exactly
// one compile — pinned by the server's own encode/tighten pass totals,
// which must grow by exactly one compile's phases — and every response's
// Table II width-10 value is bit-identical to the CLI path (vnn.Compile +
// vnn.Verify with the same pinned worker count).
func TestServer64ConcurrentIdenticalOneCompile(t *testing.T) {
	pred := core.NewPredictorNet(1, 10, 1, 1) // a width-10 Table II shape
	outs := pred.MuLatOutputs()
	ctx := context.Background()

	// The CLI path, and the passes its one compile performs.
	cliOpts := vnn.Options{Tighten: true, Workers: 1}
	cn, err := vnn.Compile(ctx, pred.Net, vnn.LeftOccupiedRegion(), cliOpts)
	if err != nil {
		t.Fatal(err)
	}
	ph := cn.CompilePhases()
	ref, err := vnn.VerifyOne(ctx, cn, vnn.MaxOverOutputs(outs...))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Exact {
		t.Fatal("CLI reference did not conclude")
	}

	srv, ts := newTestServer(t, vnnserver.Config{QueueDepth: 128})
	body := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: outs}},
		vnnserver.QueryOptions{Tighten: true, Workers: 1}, nil)

	before := srv.Metrics()
	const clients = 64
	responses := make([]vnnserver.VerifyResponse, clients)
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			statuses[slot] = postVerify(t, ts.URL, body, &responses[slot])
		}(i)
	}
	wg.Wait()

	// Exactly one compile across the whole stampede, and every request's
	// own searches.
	after := srv.Metrics()
	if ph.EncodePasses == 0 || ph.TightenPasses != 1 {
		t.Fatalf("reference compile: %+v", ph)
	}
	if d := after.EncodePasses - before.EncodePasses; d != int64(ph.EncodePasses) {
		t.Fatalf("server performed %d encode passes for %d identical requests, want %d (one compile)",
			d, clients, ph.EncodePasses)
	}
	if d := after.TightenPasses - before.TightenPasses; d != int64(ph.TightenPasses) {
		t.Fatalf("server performed %d tighten passes, want %d (one compile)", d, ph.TightenPasses)
	}
	if d := after.Solves - before.Solves; d != int64(clients*ref.Stats.Solves) {
		t.Fatalf("server counted %d solves, want %d per request", d, ref.Stats.Solves)
	}

	misses := 0
	for i, vr := range responses {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !vr.CacheHit {
			misses++
		}
		if vr.Fingerprint != responses[0].Fingerprint {
			t.Fatalf("request %d fingerprint diverged", i)
		}
		if vr.Worst != "proved" || len(vr.Results) != 1 || !vr.Results[0].Exact {
			t.Fatalf("request %d: worst=%s results=%+v", i, vr.Worst, vr.Results)
		}
		// Bit-identical to the CLI path: JSON emits the shortest float64
		// representation that round-trips, so equality here is bitwise.
		if vr.Results[0].Value == nil || *vr.Results[0].Value != ref.Value {
			t.Fatalf("request %d value %v, CLI path %v (not bit-identical)", i, vr.Results[0].Value, ref.Value)
		}
	}
	if misses != 1 {
		t.Fatalf("%d cache misses across %d identical requests, want exactly 1", misses, clients)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses server-sent events from r, passing each to visit; it
// stops after a terminal result/error event or when the stream ends.
func readSSE(t *testing.T, r io.Reader, visit func(sseEvent) bool) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				if !visit(cur) {
					return
				}
				cur = sseEvent{}
			}
		}
	}
}

// TestServerAsyncEventsAndResult covers the async path: 202 with a job
// id, SSE progress events tagged with node counts, a terminal result
// event, and the result re-fetchable by id afterwards.
func TestServerAsyncEventsAndResult(t *testing.T) {
	pred := core.NewPredictorNet(1, 10, 2, 2)
	outs := pred.MuLatOutputs()
	ctx := context.Background()

	cn, err := vnn.Compile(ctx, pred.Net, vnn.LeftOccupiedRegion(), vnn.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := vnn.VerifyOne(ctx, cn, vnn.MaxOverOutputs(outs...))
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, vnnserver.Config{})
	wait := false
	body := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: outs}},
		vnnserver.QueryOptions{Workers: 1}, &wait)

	var acc vnnserver.AcceptedResponse
	if st := postVerify(t, ts.URL, body, &acc); st != http.StatusAccepted {
		t.Fatalf("async submit status %d", st)
	}
	if acc.ID == "" || acc.Status != "running" {
		t.Fatalf("accepted response %+v", acc)
	}

	resp, err := http.Get(ts.URL + "/v1/verify/" + acc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	progress := 0
	var final vnnserver.VerifyResponse
	gotResult := false
	readSSE(t, resp.Body, func(ev sseEvent) bool {
		switch ev.name {
		case "progress":
			var pe struct {
				Property int     `json:"property"`
				Nodes    int     `json:"nodes"`
				Bound    float64 `json:"bound"`
			}
			if err := json.Unmarshal([]byte(ev.data), &pe); err != nil {
				t.Fatalf("progress payload %q: %v", ev.data, err)
			}
			if pe.Nodes <= 0 {
				t.Fatalf("progress event without nodes: %q", ev.data)
			}
			progress++
			return true
		case "result":
			if err := json.Unmarshal([]byte(ev.data), &final); err != nil {
				t.Fatalf("result payload: %v", err)
			}
			gotResult = true
			return false
		case "job":
			return true
		default:
			t.Fatalf("unexpected event %q", ev.name)
			return false
		}
	})
	if progress == 0 || !gotResult {
		t.Fatalf("stream delivered %d progress events, result=%v", progress, gotResult)
	}
	if final.ID != acc.ID || final.Worst != "proved" {
		t.Fatalf("final %+v", final)
	}
	if final.Results[0].Value == nil || *final.Results[0].Value != ref.Value {
		t.Fatalf("async value %v != direct %v", final.Results[0].Value, ref.Value)
	}

	// The finished result stays retrievable by id.
	var again vnnserver.VerifyResponse
	getJSON(t, ts.URL+"/v1/verify/"+acc.ID, http.StatusOK, &again)
	if again.ID != acc.ID || len(again.Results) != 1 {
		t.Fatalf("refetch %+v", again)
	}
}

// getJSON GETs url expecting the given status and decodes into out.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s (%s)", url, resp.Status, msg)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerDrainAnytime pins the drain contract end to end: a query
// interrupted by drain still answers — Inconclusive, with a finite
// proven upper bound that soundly dominates anything a falsifier can
// reach — and the draining server rejects new work with 503.
func TestServerDrainAnytime(t *testing.T) {
	// Big enough that the solve cannot finish before drain hits it.
	pred := core.NewPredictorNet(2, 16, 2, 5)
	outs := pred.MuLatOutputs()

	srv, ts := newTestServer(t, vnnserver.Config{})
	wait := false
	body := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: outs}},
		vnnserver.QueryOptions{Workers: 1}, &wait)

	var acc vnnserver.AcceptedResponse
	if st := postVerify(t, ts.URL, body, &acc); st != http.StatusAccepted {
		t.Fatalf("submit status %d", st)
	}

	resp, err := http.Get(ts.URL + "/v1/verify/" + acc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var final vnnserver.VerifyResponse
	gotResult := false
	drained := false
	readSSE(t, resp.Body, func(ev sseEvent) bool {
		switch ev.name {
		case "progress":
			if !drained {
				// The query is provably mid-search: drain now. Drain
				// blocks until the interrupted query has delivered its
				// anytime result.
				srv.Drain(0)
				drained = true
			}
			return true
		case "result":
			gotResult = json.Unmarshal([]byte(ev.data), &final) == nil
			return false
		default:
			return true
		}
	})
	if !drained {
		t.Fatal("no progress event ever arrived")
	}
	if !gotResult {
		t.Fatal("drained query delivered no result")
	}
	res := final.Results[0]
	if res.Outcome != "inconclusive" || res.Exact {
		t.Fatalf("interrupted query: outcome=%s exact=%v, want inconclusive", res.Outcome, res.Exact)
	}
	if res.UpperBound == nil {
		t.Fatal("interrupted query carries no finite anytime upper bound")
	}
	// Soundness of the anytime bound: no concrete input may beat it.
	atk, err := vnn.FalsifyCtx(context.Background(), pred.Net, vnn.LeftOccupiedRegion(), outs,
		vnn.FalsifyOptions{Restarts: 3, Steps: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if atk.Value > *res.UpperBound+1e-6 {
		t.Fatalf("falsifier reached %g above the 'sound' anytime bound %g", atk.Value, *res.UpperBound)
	}

	// Draining state is observable and new work is rejected.
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", health.Status)
	}
	if st := postVerify(t, ts.URL, body, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("post-drain verify status %d, want 503", st)
	}
}

// TestServerBackpressure pins the HTTP mapping of a saturated queue: 429.
func TestServerBackpressure(t *testing.T) {
	pred := core.NewPredictorNet(2, 16, 2, 7)
	srv, ts := newTestServer(t, vnnserver.Config{MaxConcurrent: 1, QueueDepth: -1})

	wait := false
	slow := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: pred.MuLatOutputs()}},
		vnnserver.QueryOptions{Workers: 1}, &wait)
	var acc vnnserver.AcceptedResponse
	if st := postVerify(t, ts.URL, slow, &acc); st != http.StatusAccepted {
		t.Fatalf("slow submit status %d", st)
	}
	// Wait until the slow query occupies the only run slot.
	var m vnnserver.Metrics
	for i := 0; ; i++ {
		getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
		if m.Scheduler.Active == 1 {
			break
		}
		if i > 2000 {
			t.Fatal("slow query never became active")
		}
	}

	var errResp struct {
		Error string `json:"error"`
	}
	if st := postVerify(t, ts.URL, slow, &errResp); st != http.StatusTooManyRequests {
		t.Fatalf("saturated verify status %d, want 429", st)
	}
	if !strings.Contains(errResp.Error, "queue") {
		t.Fatalf("429 error %q", errResp.Error)
	}
	srv.Drain(0) // interrupt the slow query so the test exits promptly
}

// TestServerFalsifyAndValidation covers the verify request validation
// surface. (Falsification is the "falsify" analysis kind of /v1/analyze:
// TestAnalyzePortfolioRoundTrip, TestAnalyzeValidationErrors and
// TestAnalyzeFalsifyCutShort cover what the /v1/falsify legs here did.)
func TestServerFalsifyAndValidation(t *testing.T) {
	_, ts := newTestServer(t, vnnserver.Config{})
	netJSON, err := vnn.MarshalNetwork(rolloutNet())
	if err != nil {
		t.Fatal(err)
	}

	// Validation: every malformed request is a 400, never a hang or 500.
	badBodies := []string{
		`{`,
		`{"network":null}`,
		`{"network":{"name":"x","layers":[]},"region":{"name":"left_occupied"},"properties":[{"kind":"max","outputs":[0]}]}`,
		fmt.Sprintf(`{"network":%s,"region":{"name":"atlantis"},"properties":[{"kind":"max","outputs":[0]}]}`, netJSON),
		fmt.Sprintf(`{"network":%s,"region":{"box":[[0,1],[0,1]]},"properties":[]}`, netJSON),
		fmt.Sprintf(`{"network":%s,"region":{"box":[[0,1],[0,1]]},"properties":[{"kind":"sideways"}]}`, netJSON),
		fmt.Sprintf(`{"network":%s,"region":{"box":[[0,1],[0,1]]},"properties":[{"kind":"max","outputs":[0]}],"surprise":1}`, netJSON),
		// A resilience nominal point outside the box, one whose value
		// |x0 - x1| = 1 already exceeds the threshold, and a region no
		// input satisfies are the client's fault too.
		fmt.Sprintf(`{"network":%s,"region":{"box":[[0,1],[0,1]]},"properties":[{"kind":"resilience","x0":[2,0],"output":0,"threshold":5}]}`, netJSON),
		fmt.Sprintf(`{"network":%s,"region":{"box":[[0,1],[0,1]]},"properties":[{"kind":"resilience","x0":[1,0],"output":0,"threshold":0.5}]}`, netJSON),
		fmt.Sprintf(`{"network":%s,"region":{"box":[[0,1],[0,1]],"linear":[{"coeffs":{"0":1,"1":1},"sense":">=","rhs":5}]},"properties":[{"kind":"max","outputs":[0]}]}`, netJSON),
	}
	for i, body := range badBodies {
		if st := postVerify(t, ts.URL, []byte(body), nil); st != http.StatusBadRequest {
			t.Fatalf("bad body %d: status %d, want 400", i, st)
		}
	}
	// A property referencing a nonexistent output is rejected by the
	// engine and surfaces as 400 too.
	if st := postVerify(t, ts.URL, []byte(fmt.Sprintf(
		`{"network":%s,"region":{"box":[[0,1],[0,1]]},"properties":[{"kind":"max","outputs":[9]}]}`, netJSON)), nil); st != http.StatusBadRequest {
		t.Fatalf("out-of-range output: status %d, want 400", st)
	}

	getJSON(t, ts.URL+"/v1/verify/q99999999", http.StatusNotFound, nil)
}

// TestRequestBodiesStrict holds every decoding route to the same body
// rules: a body over MaxBodyBytes answers 413, and anything but
// whitespace after the JSON value answers 400 before the handler runs.
func TestRequestBodiesStrict(t *testing.T) {
	_, ts := newTestServer(t, vnnserver.Config{MaxBodyBytes: 64})
	oversized := `{"fingerprint":"` + strings.Repeat("x", 64) + `"}`
	cases := []struct {
		name, body string
		status     int
		want       string // error substring
	}{
		{"oversized", oversized, http.StatusRequestEntityTooLarge, "request body too large"},
		{"oversized whitespace", "{}" + strings.Repeat(" ", 80), http.StatusRequestEntityTooLarge, "request body too large"},
		{"trailing garbage", `{"fingerprint":"x","inputs":[[1]]} trailing garbage`, http.StatusBadRequest, "invalid character 't' after top-level value"},
		{"second value", `{} {}`, http.StatusBadRequest, "invalid character '{' after top-level value"},
	}
	for _, route := range []string{"/v1/infer", "/v1/verify", "/v1/analyze"} {
		for _, c := range cases {
			body := c.body
			if route != "/v1/infer" {
				body = strings.Replace(body, `"fingerprint":"x","inputs":[[1]]`, ``, 1)
			}
			resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: decode %s response: %v", route, c.name, resp.Status, err)
			}
			if resp.StatusCode != c.status || !strings.Contains(e.Error, c.want) {
				t.Fatalf("%s %s: %d %q, want %d and %q", route, c.name, resp.StatusCode, e.Error, c.status, c.want)
			}
		}
	}
	// Trailing whitespace is not trailing data: the infer body reaches
	// the handler, which does not know the fingerprint.
	if st := postInfer(t, ts.URL, []byte(`{"fingerprint":"x","inputs":[[1]]}`+" \r\n\t"), nil); st != http.StatusNotFound {
		t.Fatalf("trailing whitespace: status %d, want 404", st)
	}
}

// TestServerMetrics spot-checks the /metrics snapshot after traffic.
func TestServerMetrics(t *testing.T) {
	pred := core.NewPredictorNet(1, 10, 1, 4)
	_, ts := newTestServer(t, vnnserver.Config{CacheEntries: 2})
	body := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: pred.MuLatOutputs()}},
		vnnserver.QueryOptions{Workers: 1}, nil)

	var first, second vnnserver.VerifyResponse
	if st := postVerify(t, ts.URL, body, &first); st != http.StatusOK {
		t.Fatalf("first status %d", st)
	}
	if st := postVerify(t, ts.URL, body, &second); st != http.StatusOK {
		t.Fatalf("second status %d", st)
	}
	if first.CacheHit || !second.CacheHit {
		t.Fatalf("cache hits: first=%v second=%v", first.CacheHit, second.CacheHit)
	}
	if first.CompileMS <= 0 || second.CompileMS != first.CompileMS {
		t.Fatalf("compile cost not carried by the artifact: %v vs %v", first.CompileMS, second.CompileMS)
	}

	var m vnnserver.Metrics
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.Queries != 2 || m.Cache.Hits != 1 || m.Cache.Misses != 1 || m.Cache.Size != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if m.Nodes <= 0 || m.EncodePasses <= 0 {
		t.Fatalf("effort counters empty: %+v", m)
	}
	if m.Draining {
		t.Fatal("fresh server reports draining")
	}
}

// TestEffortTotalsSequence pins one node's /metrics effort totals over a
// fixed sequence — verify, verify tightened, analyze with a two-width
// quant sweep, then a cache-hit repeat of each — at the per-step deltas
// the process-wide counters gave before each Server owned its own: the
// move changed the scope of encode_passes, tighten_passes and solves,
// not one count.
func TestEffortTotalsSequence(t *testing.T) {
	net, region := smallNet(t)
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	verifyReq := func(tighten bool) []byte {
		body, err := json.Marshal(vnnserver.VerifyRequest{
			Network: netJSON, Region: region,
			Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{0}}},
			Options:    vnnserver.QueryOptions{Tighten: tighten, Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	sweep := analyzeBody(t, net, region, []vnn.AnalysisSpec{{
		Kind: vnn.KindQuantSweep, Bits: []int{8, 4},
		Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{0, 1}}},
	}}, vnnserver.QueryOptions{Workers: 1}, nil)
	steps := []struct {
		name, path string
		body       []byte
		want       [3]int64 // encode passes, tighten passes, solves
	}{
		{"verify", "/v1/verify", verifyReq(false), [3]int64{1, 0, 1}},
		{"verify tightened", "/v1/verify", verifyReq(true), [3]int64{2, 1, 1}},
		{"quant sweep", "/v1/analyze", sweep, [3]int64{2, 0, 6}},
	}

	srv, ts := newTestServer(t, vnnserver.Config{})
	for _, repeat := range []bool{false, true} {
		for _, st := range steps {
			before := srv.Metrics()
			if code, raw := post(t, ts.URL+st.path, st.body); code != http.StatusOK {
				t.Fatalf("%s: %d %s", st.name, code, raw)
			}
			after := srv.Metrics()
			got := [3]int64{after.EncodePasses - before.EncodePasses, after.TightenPasses - before.TightenPasses, after.Solves - before.Solves}
			want := st.want
			if repeat { // every compile is a cache hit; the searches run again
				want[0], want[1] = 0, 0
			}
			if got != want {
				t.Fatalf("%s (repeat %v): encode/tighten/solves deltas %v, want %v", st.name, repeat, got, want)
			}
		}
	}
}
