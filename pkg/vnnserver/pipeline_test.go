package vnnserver_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// jobRoute is one scheduled-job endpoint as the pipeline contract test
// sees it: how to phrase "answer these properties" in its request body
// and where its job's result and event stream live.
type jobRoute struct {
	name string
	path string
	// syncByDefault is what an absent "wait" means on this route.
	syncByDefault bool
	body          func(t *testing.T, net *nn.Network, props []vnn.PropertySpec, wait *bool) []byte
	// resultPath and eventsPath address an accepted job by its id. The job
	// registry is route-agnostic, so a gate job's terminal answer is also
	// readable under the generic job route.
	resultPath func(id string) string
	eventsPath func(id string) string
}

const contractModel = "contract"

// contractProps is one property every contract network can answer.
func contractProps() []vnn.PropertySpec {
	threshold := 1.5
	return []vnn.PropertySpec{{Kind: "at_most", Output: new(int), Threshold: &threshold}}
}

// searchProps is one property no bound settles: answering it takes at
// least one branch-and-bound node and its LP.
func searchProps() []vnn.PropertySpec {
	return []vnn.PropertySpec{{Kind: "max", Outputs: []int{0}}}
}

func jobRoutes() []jobRoute {
	unitBox := vnn.RegionSpec{Box: [][2]float64{{0, 1}, {0, 1}}}
	marshal := func(t *testing.T, net *nn.Network, req func(json.RawMessage) any) []byte {
		t.Helper()
		netJSON, err := vnn.MarshalNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(req(netJSON))
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	opts := vnnserver.QueryOptions{Workers: 1}
	analyses := func(props []vnn.PropertySpec) []vnn.AnalysisSpec {
		return []vnn.AnalysisSpec{{Kind: vnn.KindVerify, Properties: props}}
	}
	return []jobRoute{
		{
			name: "verify", path: "/v1/verify", syncByDefault: true,
			body: func(t *testing.T, net *nn.Network, props []vnn.PropertySpec, wait *bool) []byte {
				return marshal(t, net, func(n json.RawMessage) any {
					return vnnserver.VerifyRequest{Network: n, Region: unitBox, Properties: props, Options: opts, Wait: wait}
				})
			},
			resultPath: func(id string) string { return "/v1/verify/" + id },
			eventsPath: func(id string) string { return "/v1/verify/" + id + "/events" },
		},
		{
			name: "analyze", path: "/v1/analyze", syncByDefault: true,
			body: func(t *testing.T, net *nn.Network, props []vnn.PropertySpec, wait *bool) []byte {
				return marshal(t, net, func(n json.RawMessage) any {
					return vnnserver.AnalyzeRequest{Network: n, Region: unitBox, Analyses: analyses(props), Options: opts, Wait: wait}
				})
			},
			resultPath: func(id string) string { return "/v1/analyze/" + id },
			eventsPath: func(id string) string { return "/v1/analyze/" + id + "/events" },
		},
		{
			name: "gate", path: "/v1/models", syncByDefault: false,
			body: func(t *testing.T, net *nn.Network, props []vnn.PropertySpec, wait *bool) []byte {
				return marshal(t, net, func(n json.RawMessage) any {
					return vnnserver.ModelSubmitRequest{Model: contractModel, Network: n, Region: unitBox,
						Options: opts, Gate: &vnn.GateSpec{Analyses: analyses(props)}, Wait: wait}
				})
			},
			resultPath: func(id string) string { return "/v1/verify/" + id },
			eventsPath: func(string) string { return "/v1/models/" + contractModel + "/events" },
		},
	}
}

// post sends body to the route and returns the status and raw reply.
func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getStatus(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// jobID extracts the job id every 202 body carries.
func jobID(t *testing.T, raw []byte) string {
	t.Helper()
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil || ack.ID == "" {
		t.Fatalf("202 body %s carries no job id (%v)", raw, err)
	}
	return ack.ID
}

// occupyOnlySlot submits a slow async verify and waits until it holds the
// server's single run slot. It becomes job q00000001.
func occupyOnlySlot(t *testing.T, srv *vnnserver.Server, url string) {
	t.Helper()
	pred := core.NewPredictorNet(2, 16, 2, 7)
	wait := false
	slow := verifyBody(t, pred.Net,
		[]vnn.PropertySpec{{Kind: "max", Outputs: pred.MuLatOutputs()}},
		vnnserver.QueryOptions{Workers: 1}, &wait)
	if st, raw := post(t, url+"/v1/verify", slow); st != http.StatusAccepted {
		t.Fatalf("slow submit: %d %s", st, raw)
	}
	waitScheduler(t, srv, "the slow query to become active", func(s vnnserver.SchedulerStats) bool { return s.Active == 1 })
}

func waitScheduler(t *testing.T, srv *vnnserver.Server, what string, ok func(vnnserver.SchedulerStats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !ok(srv.Metrics().Scheduler) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, srv.Metrics().Scheduler)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainWithin fails the test if Drain does not return.
func drainWithin(t *testing.T, srv *vnnserver.Server, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		srv.Drain(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Drain did not return")
	}
}

// spanNames lists the names of a span's children in order.
func spanNames(sp *obs.SpanJSON) []string {
	names := make([]string, len(sp.Children))
	for i, c := range sp.Children {
		names[i] = c.Name
	}
	return names
}

// compileCount reads how many compiles the server has observed into
// vnnd_compile_seconds.
func compileCount(srv *vnnserver.Server) int64 {
	return findHistogram(srv.Metrics().Histograms, "vnnd_compile_seconds", "").Count
}

// TestJobPipelineContract pins, for every scheduled-job route, the
// behaviour the shared skeleton owns: drain refusal before any side
// effect, immediate backpressure that creates nothing, async jobs whose
// result and event stream agree, a drain that accounts for queued jobs,
// and — the shared run body's half — solver effort that reaches /metrics
// and a trace that decomposes into queue, cache and solve.
func TestJobPipelineContract(t *testing.T) {
	for _, rt := range jobRoutes() {
		t.Run(rt.name+"/effort", func(t *testing.T) {
			srv, ts := newTestServer(t, vnnserver.Config{})
			waitRegistryReady(t, srv)
			before := srv.Metrics()
			wait := true
			st, raw := post(t, ts.URL+rt.path, rt.body(t, rolloutNet(), searchProps(), &wait))
			if st != http.StatusOK {
				t.Fatalf("sync submit answered %d %s", st, raw)
			}
			if after := srv.Metrics(); after.Nodes <= before.Nodes || after.LPPivots <= before.LPPivots {
				t.Fatalf("/metrics effort did not grow with the job: nodes %d → %d, lp_pivots %d → %d",
					before.Nodes, after.Nodes, before.LPPivots, after.LPPivots)
			}
			root := getTrace(t, ts.URL, jobID(t, raw)).Root
			if got, want := spanNames(root), []string{"queue", "cache", "solve"}; !slicesEqual(got, want) {
				t.Fatalf("root children %v, want %v", got, want)
			}
			cache, solve := root.Children[1], root.Children[2]
			if hit, ok := cache.Attrs["hit"].(bool); !ok || hit || !slicesEqual(spanNames(cache), []string{"compile"}) {
				t.Fatalf("cache span attrs %v children %v, want a miss with one compile child", cache.Attrs, spanNames(cache))
			}
			compile := cache.Children[0]
			if got := spanNames(compile); !slicesEqual(got, []string{"encode"}) && !slicesEqual(got, []string{"tighten", "encode"}) {
				t.Fatalf("compile children %v, want [tighten?, encode]", got)
			}
			for _, k := range []string{"tighten_passes", "encode_passes"} {
				if _, ok := compile.Attrs[k]; !ok {
					t.Fatalf("compile span attrs %v lack %s", compile.Attrs, k)
				}
			}
			for _, k := range []string{"nodes", "lp_pivots"} {
				if v, _ := solve.Attrs[k].(float64); v <= 0 {
					t.Fatalf("solve span attrs %v, want %s > 0", solve.Attrs, k)
				}
			}
			for _, k := range []string{"bb_max_depth", "lp_warm_solves", "lp_cold_solves"} {
				if _, ok := solve.Attrs[k]; !ok {
					t.Fatalf("solve span attrs %v lack %s", solve.Attrs, k)
				}
			}
		})

		t.Run(rt.name+"/draining", func(t *testing.T) {
			srv, ts := newTestServer(t, vnnserver.Config{})
			waitRegistryReady(t, srv)
			srv.Drain(0)
			// Even an undecodable body is refused as draining, not as
			// malformed: the check precedes the decode.
			for _, body := range [][]byte{[]byte(`{`), rt.body(t, rolloutNet(), contractProps(), nil)} {
				if st, raw := post(t, ts.URL+rt.path, body); st != http.StatusServiceUnavailable {
					t.Fatalf("draining server answered %d %s, want 503", st, raw)
				}
			}
			if st, _ := getStatus(t, ts.URL+"/v1/verify/q00000001"); st != http.StatusNotFound {
				t.Fatalf("refused request left a job behind (status %d)", st)
			}
			if st, _ := getStatus(t, ts.URL+"/v1/models/"+contractModel); st != http.StatusNotFound {
				t.Fatalf("refused request registered a model (status %d)", st)
			}
		})

		t.Run(rt.name+"/saturated", func(t *testing.T) {
			srv, ts := newTestServer(t, vnnserver.Config{MaxConcurrent: 1, QueueDepth: -1})
			waitRegistryReady(t, srv)
			occupyOnlySlot(t, srv, ts.URL)
			for _, wait := range []bool{true, false} {
				st, raw := post(t, ts.URL+rt.path, rt.body(t, rolloutNet(), contractProps(), &wait))
				if st != http.StatusTooManyRequests || !strings.Contains(string(raw), "queue") {
					t.Fatalf("saturated server (wait=%v) answered %d %s, want 429", wait, st, raw)
				}
			}
			if st, _ := getStatus(t, ts.URL+"/v1/verify/q00000002"); st != http.StatusNotFound {
				t.Fatalf("rejected request created a job (status %d)", st)
			}
			if st, _ := getStatus(t, ts.URL+"/v1/models/"+contractModel); st != http.StatusNotFound {
				t.Fatalf("rejected request registered a model (status %d)", st)
			}
			if got := srv.Metrics().Scheduler.Rejected; got != 2 {
				t.Fatalf("scheduler counted %d rejections, want 2", got)
			}
			drainWithin(t, srv, 30*time.Second)
			if got := srv.Metrics().Scheduler.Admitted; got != 0 {
				t.Fatalf("%d admission tokens outstanding after drain", got)
			}
		})

		t.Run(rt.name+"/async", func(t *testing.T) {
			srv, ts := newTestServer(t, vnnserver.Config{})
			waitRegistryReady(t, srv)
			// An absent "wait" means what the route says it means.
			wantDefault := http.StatusAccepted
			if rt.syncByDefault {
				wantDefault = http.StatusOK
			}
			if st, raw := post(t, ts.URL+rt.path, rt.body(t, rolloutNetV2(), contractProps(), nil)); st != wantDefault {
				t.Fatalf("default wait answered %d %s, want %d", st, raw, wantDefault)
			}

			wait := false
			st, raw := post(t, ts.URL+rt.path, rt.body(t, rolloutNet(), contractProps(), &wait))
			if st != http.StatusAccepted {
				t.Fatalf("async submit answered %d %s", st, raw)
			}
			id := jobID(t, raw)

			resp, err := http.Get(ts.URL + rt.eventsPath(id))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var streamed string
			readSSE(t, resp.Body, func(ev sseEvent) bool {
				if ev.name == "error" {
					t.Fatalf("job failed: %s", ev.data)
				}
				if ev.name == "result" {
					streamed = ev.data
					return false
				}
				return true
			})
			// The stream has terminated, so the job is finished: its result
			// is served, and it is the streamed one.
			st, polled := getStatus(t, ts.URL+rt.resultPath(id))
			if st != http.StatusOK {
				t.Fatalf("finished job answered %d %s", st, polled)
			}
			if got := strings.TrimSpace(string(polled)); got != streamed || !strings.Contains(got, `"id":"`+id+`"`) {
				t.Fatalf("GET result\n%s\ndiffers from the streamed result\n%s", got, streamed)
			}
			if got := srv.Metrics().Scheduler.Admitted; got != 0 {
				t.Fatalf("%d admission tokens outstanding after the job finished", got)
			}
		})

		t.Run(rt.name+"/drain-queued", func(t *testing.T) {
			srv, ts := newTestServer(t, vnnserver.Config{MaxConcurrent: 1, QueueDepth: 1})
			waitRegistryReady(t, srv)
			occupyOnlySlot(t, srv, ts.URL)
			wait := false
			st, raw := post(t, ts.URL+rt.path, rt.body(t, rolloutNet(), contractProps(), &wait))
			if st != http.StatusAccepted {
				t.Fatalf("queued submit answered %d %s", st, raw)
			}
			id := jobID(t, raw)
			waitScheduler(t, srv, "the job to queue", func(s vnnserver.SchedulerStats) bool { return s.Queued == 1 })
			drainWithin(t, srv, 30*time.Second)
			if got := srv.Metrics().Scheduler.Admitted; got != 0 {
				t.Fatalf("%d admission tokens outstanding after drain", got)
			}
			if st, raw := getStatus(t, ts.URL+rt.resultPath(id)); st == http.StatusAccepted || st == http.StatusNotFound {
				t.Fatalf("queued job not finished by drain: %d %s", st, raw)
			}
		})
	}

	// A quantization sweep's per-width recompiles go through the same
	// compile door as the base compile: each is one vnnd_compile_seconds
	// observation and one "cache" span — the base compile under the root,
	// one per width under "solve".
	t.Run("analyze/quant-sweep", func(t *testing.T) {
		srv, ts := newTestServer(t, vnnserver.Config{})
		// Random weights, so each width quantizes to a network of its own.
		net, region := smallNet(t)
		body := analyzeBody(t, net, region,
			[]vnn.AnalysisSpec{{Kind: vnn.KindQuantSweep, Bits: []int{8, 4}, Properties: searchProps()}},
			vnnserver.QueryOptions{Workers: 1}, nil)
		before := compileCount(srv)
		st, raw := post(t, ts.URL+"/v1/analyze", body)
		if st != http.StatusOK {
			t.Fatalf("sweep answered %d %s", st, raw)
		}
		if got := compileCount(srv) - before; got != 3 {
			t.Fatalf("vnnd_compile_seconds counted %d compiles, want 3 (base + one per width)", got)
		}
		root := getTrace(t, ts.URL, jobID(t, raw)).Root
		if got, want := spanNames(root), []string{"queue", "cache", "solve"}; !slicesEqual(got, want) {
			t.Fatalf("root children %v, want %v", got, want)
		}
		var sweepCompiles int
		for _, c := range root.Children[2].Children {
			if c.Name == "cache" {
				if hit, ok := c.Attrs["hit"].(bool); !ok || hit || !slicesEqual(spanNames(c), []string{"compile"}) {
					t.Fatalf("sweep cache span attrs %v children %v, want a miss with one compile child", c.Attrs, spanNames(c))
				}
				sweepCompiles++
			}
		}
		if sweepCompiles != 2 {
			t.Fatalf("solve span children %v, want one cache span per width", spanNames(root.Children[2]))
		}
	})
}

// TestGateJoinsInboundTrace pins that POST /v1/models joins a caller's
// distributed trace like every other handler: the gate trace is
// retrievable under the inbound W3C trace id, records the caller's span
// as its remote parent, and keeps the "gate" route name and the
// trace-id=job-id contract.
func TestGateJoinsInboundTrace(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	waitRegistryReady(t, srv)
	const traceID, parentSpan = "0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"

	wait := true
	var gate jobRoute
	for _, rt := range jobRoutes() {
		if rt.name == "gate" {
			gate = rt
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+gate.path, bytes.NewReader(gate.body(t, rolloutNet(), contractProps(), &wait)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-"+parentSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gate submit: %d %s", resp.StatusCode, raw)
	}
	id := jobID(t, raw)

	for _, addr := range []string{traceID, id} {
		tr := getTrace(t, ts.URL, addr)
		if tr.ID != id || tr.TraceID != traceID || tr.ParentSpan != parentSpan || tr.Route != "gate" {
			t.Fatalf("trace fetched as %s: id=%s trace_id=%s parent_span=%s route=%s", addr, tr.ID, tr.TraceID, tr.ParentSpan, tr.Route)
		}
	}
}
