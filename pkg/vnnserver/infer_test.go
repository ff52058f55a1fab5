package vnnserver_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// inferNet builds a small ReLU predictor with dims independent of the
// case study, so infer tests stay fast.
func inferNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.New(nn.Config{
		Name: "infer-test", InputDim: 6, Hidden: []int{12, 12}, OutputDim: 3,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
}

// inferBox is the [-1, 1] region the infer tests quantify over.
func inferBox(dim int) [][2]float64 {
	box := make([][2]float64, dim)
	for i := range box {
		box[i] = [2]float64{-1, 1}
	}
	return box
}

func randRows(rng *rand.Rand, n, dim, scale int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			row[j] = (rng.Float64()*2 - 1) * float64(scale)
		}
		rows[i] = row
	}
	return rows
}

func inferBody(t *testing.T, net *nn.Network, inputs [][]float64, mon *vnnserver.InferMonitorSpec) []byte {
	t.Helper()
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(vnnserver.InferRequest{
		Network: netJSON,
		Region:  vnn.RegionSpec{Box: inferBox(net.InputDim())},
		Inputs:  inputs,
		Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postInfer(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
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

// servingForward runs the serving-kernel forward on x alone — a one-row
// nn.ForwardBatchInto, the numerics /v1/infer promises bit-identity with
// however the server batches and shards. nn.Forward keeps the legacy
// sequential order and may differ by kernel-order ULPs.
func servingForward(net *nn.Network, x []float64) []float64 {
	dst := make([]float64, net.OutputDim())
	net.ForwardBatchInto([][]float64{dst}, net.NewScratch(), [][]float64{x})
	return dst
}

// inferTol is the documented serving-vs-reference tolerance for the tiny
// test networks (see DESIGN.md "Kernel layer").
const inferTol = 1e-10

// TestInfer64ConcurrentBitIdenticalAndDeterministic is the inference
// plane's acceptance contract: 64 concurrent monitored clients against
// one warm server receive predictions bit-identical to a direct one-row
// nn.ForwardBatchInto (and within documented tolerance of nn.Forward),
// identical deterministic verdicts, and the monitor is built exactly once
// (singleflight over the monitor cache).
func TestInfer64ConcurrentBitIdenticalAndDeterministic(t *testing.T) {
	net := inferNet(1)
	rng := rand.New(rand.NewSource(2))
	dataset := randRows(rng, 64, net.InputDim(), 1)
	// Probe both in-distribution inputs and wild ones (scale 3 leaves the
	// region and the learned patterns).
	inputs := append(randRows(rng, 24, net.InputDim(), 1), randRows(rng, 8, net.InputDim(), 3)...)

	_, ts := newTestServer(t, vnnserver.Config{})
	body := inferBody(t, net, inputs, &vnnserver.InferMonitorSpec{Data: dataset, Gamma: 1})

	const clients = 64
	responses := make([]*vnnserver.InferResponse, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ir vnnserver.InferResponse
			if status := postInfer(t, ts.URL, body, &ir); status != http.StatusOK {
				t.Errorf("client %d: status %d", c, status)
				return
			}
			responses[c] = &ir
		}(c)
	}
	wg.Wait()

	// Reference: direct serving-kernel forward passes on the same
	// network, cross-checked against the legacy order within tolerance.
	want := make([][]float64, len(inputs))
	for i, x := range inputs {
		want[i] = servingForward(net, x)
		legacy := net.Forward(x)
		for j := range legacy {
			if d := want[i][j] - legacy[j]; d > inferTol || d < -inferTol {
				t.Fatalf("input %d: serving %v vs legacy %v exceeds tolerance", i, want[i][j], legacy[j])
			}
		}
	}
	first := responses[0]
	if first == nil {
		t.Fatal("no successful responses")
	}
	builds := 0
	for c, ir := range responses {
		if ir == nil {
			t.Fatalf("client %d got no response", c)
		}
		if len(ir.Outputs) != len(inputs) || len(ir.Verdicts) != len(inputs) {
			t.Fatalf("client %d: %d outputs, %d verdicts for %d inputs", c, len(ir.Outputs), len(ir.Verdicts), len(inputs))
		}
		for i := range inputs {
			for j := range want[i] {
				if ir.Outputs[i][j] != want[i][j] { // bit-identical, no tolerance
					t.Fatalf("client %d input %d: output %v, one-row serving forward %v", c, i, ir.Outputs[i], want[i])
				}
			}
			if ir.Verdicts[i] != first.Verdicts[i] {
				t.Fatalf("client %d input %d: verdict %+v differs from %+v", c, i, ir.Verdicts[i], first.Verdicts[i])
			}
		}
		if ir.MonitorFingerprint != first.MonitorFingerprint {
			t.Fatalf("client %d: monitor fingerprint drifted", c)
		}
		if !ir.MonitorCacheHit {
			builds++
		}
	}
	if builds != 1 {
		t.Fatalf("%d monitor builds for %d identical concurrent requests, want 1", builds, clients)
	}
	// Out-of-distribution probes must actually be flagged.
	if first.Flagged == 0 {
		t.Fatal("no input flagged although a third of the batch left the training distribution")
	}
	// In-distribution dataset rows must pass: they are remembered exactly.
	exact := inferBody(t, net, dataset[:8], &vnnserver.InferMonitorSpec{Data: dataset, Gamma: 1})
	var ir vnnserver.InferResponse
	if status := postInfer(t, ts.URL, exact, &ir); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if ir.Flagged != 0 {
		t.Fatalf("%d dataset rows flagged by the monitor that learned them", ir.Flagged)
	}
	if !ir.MonitorCacheHit || !ir.CacheHit {
		t.Fatal("warm server re-built the monitor or recompiled")
	}
}

// TestInferDeterministicAcrossServers pins bit-determinism across
// processes: a fresh server given the same request returns byte-identical
// outputs, verdicts and monitor fingerprints.
func TestInferDeterministicAcrossServers(t *testing.T) {
	net := inferNet(3)
	rng := rand.New(rand.NewSource(4))
	dataset := randRows(rng, 40, net.InputDim(), 1)
	inputs := randRows(rng, 16, net.InputDim(), 2)
	body := inferBody(t, net, inputs, &vnnserver.InferMonitorSpec{Data: dataset, Gamma: 2})

	var results [2]vnnserver.InferResponse
	for round := 0; round < 2; round++ {
		_, ts := newTestServer(t, vnnserver.Config{})
		if status := postInfer(t, ts.URL, body, &results[round]); status != http.StatusOK {
			t.Fatalf("round %d: status %d", round, status)
		}
	}
	if results[0].MonitorFingerprint != results[1].MonitorFingerprint {
		t.Fatal("monitor fingerprints differ across servers")
	}
	a, _ := json.Marshal(results[0].Verdicts)
	b, _ := json.Marshal(results[1].Verdicts)
	if !bytes.Equal(a, b) {
		t.Fatal("verdicts differ across servers")
	}
	oa, _ := json.Marshal(results[0].Outputs)
	ob, _ := json.Marshal(results[1].Outputs)
	if !bytes.Equal(oa, ob) {
		t.Fatal("outputs differ across servers")
	}
}

func TestInferWithoutMonitor(t *testing.T) {
	net := inferNet(5)
	rng := rand.New(rand.NewSource(6))
	inputs := randRows(rng, 10, net.InputDim(), 1)
	_, ts := newTestServer(t, vnnserver.Config{})
	var ir vnnserver.InferResponse
	if status := postInfer(t, ts.URL, inferBody(t, net, inputs, nil), &ir); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(ir.Verdicts) != 0 || ir.Flagged != 0 || ir.MonitorFingerprint != "" {
		t.Fatalf("unmonitored response carries monitor fields: %+v", ir)
	}
	for i, x := range inputs {
		want := servingForward(net, x)
		for j := range want {
			if ir.Outputs[i][j] != want[j] { // bit-identical to the serving kernels
				t.Fatalf("input %d: %v, want %v", i, ir.Outputs[i], want)
			}
		}
	}
	// Plain inference must not touch the compile cache.
	m := serverMetrics(t, ts.URL)
	if m.Cache.Misses != 0 {
		t.Fatalf("unmonitored infer compiled: %+v", m.Cache)
	}
	if m.Infer.Requests != 1 || m.Infer.Inputs != int64(len(inputs)) {
		t.Fatalf("infer metrics %+v", m.Infer)
	}
}

func serverMetrics(t *testing.T, url string) vnnserver.Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m vnnserver.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInferValidation(t *testing.T) {
	net := inferNet(7)
	_, ts := newTestServer(t, vnnserver.Config{})
	cases := []struct {
		name string
		body []byte
	}{
		{"no inputs", inferBody(t, net, nil, nil)},
		{"bad dim", inferBody(t, net, [][]float64{{1, 2}}, nil)},
		{"empty monitor data", inferBody(t, net, randRows(rand.New(rand.NewSource(1)), 2, net.InputDim(), 1),
			&vnnserver.InferMonitorSpec{})},
		{"bad monitor layer", inferBody(t, net, randRows(rand.New(rand.NewSource(1)), 2, net.InputDim(), 1),
			&vnnserver.InferMonitorSpec{Data: randRows(rand.New(rand.NewSource(2)), 2, net.InputDim(), 1), Layers: []int{2}})},
		{"garbage", []byte(`{"network": 12`)},
	}
	for _, c := range cases {
		var errResp struct {
			Error string `json:"error"`
		}
		if status := postInfer(t, ts.URL, c.body, &errResp); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", c.name, status, errResp.Error)
		}
	}
	// Batch cap.
	big := make([][]float64, 4097)
	for i := range big {
		big[i] = make([]float64, net.InputDim())
	}
	if status := postInfer(t, ts.URL, inferBody(t, net, big, nil), nil); status != http.StatusBadRequest {
		t.Fatalf("over-cap batch: status %d, want 400", status)
	}
}

// TestInferContentIdenticalMonitorsDistinctInstances: "layers": null and
// an explicit all-layers list are distinct monitor-cache workloads that
// build content-identical monitors (equal fingerprints), and a lane's
// scratch goes from one instance to the other: scratch must carry nothing
// that ties it to the monitor it last served.
func TestInferContentIdenticalMonitorsDistinctInstances(t *testing.T) {
	net := inferNet(13)
	rng := rand.New(rand.NewSource(14))
	dataset := randRows(rng, 16, net.InputDim(), 1)
	inputs := randRows(rng, 4, net.InputDim(), 1)
	_, ts := newTestServer(t, vnnserver.Config{})

	implicit := inferBody(t, net, inputs, &vnnserver.InferMonitorSpec{Data: dataset})
	explicit := inferBody(t, net, inputs, &vnnserver.InferMonitorSpec{Data: dataset, Layers: []int{0, 1}})

	var a, b vnnserver.InferResponse
	if status := postInfer(t, ts.URL, implicit, &a); status != http.StatusOK {
		t.Fatalf("implicit layers: status %d", status)
	}
	if status := postInfer(t, ts.URL, explicit, &b); status != http.StatusOK {
		t.Fatalf("explicit layers: status %d", status)
	}
	if a.MonitorFingerprint != b.MonitorFingerprint {
		t.Fatal("expected content-identical monitors (the scenario under test)")
	}
	if b.MonitorCacheHit {
		t.Fatal("expected distinct monitor-cache workloads (the scenario under test)")
	}
	for i := range a.Verdicts {
		if a.Verdicts[i] != b.Verdicts[i] {
			t.Fatalf("verdict %d differs between identical monitors", i)
		}
	}
}

func TestInferHonorsDrain(t *testing.T) {
	net := inferNet(9)
	srv, ts := newTestServer(t, vnnserver.Config{})
	inputs := randRows(rand.New(rand.NewSource(10)), 4, net.InputDim(), 1)
	body := inferBody(t, net, inputs, nil)
	if status := postInfer(t, ts.URL, body, nil); status != http.StatusOK {
		t.Fatalf("pre-drain status %d", status)
	}
	srv.Drain(0)
	var errResp struct {
		Error string `json:"error"`
	}
	if status := postInfer(t, ts.URL, body, &errResp); status != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered infer with %d (%s), want 503", status, errResp.Error)
	}
}

// TestInferMonitorRejectsUnreachablePatternOverWire exercises the static
// cross-check end to end: the dataset smuggles an out-of-region input
// whose pattern the compiled bounds prove unreachable, and the response
// reports the rejection.
func TestInferMonitorRejectsUnreachablePatternOverWire(t *testing.T) {
	// The sign net: hidden ReLU pair (x, −x), region x ∈ [1, 3].
	net := &nn.Network{Name: "sign", Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(vnnserver.InferRequest{
		Network: netJSON,
		Region:  vnn.RegionSpec{Box: [][2]float64{{1, 3}}},
		Inputs:  [][]float64{{2}, {-2}},
		Monitor: &vnnserver.InferMonitorSpec{Data: [][]float64{{2}, {-2}, {2.5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, vnnserver.Config{})
	var ir vnnserver.InferResponse
	if status := postInfer(t, ts.URL, body, &ir); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if ir.MonitorRejected != 1 {
		t.Fatalf("monitor_rejected = %d, want 1 (the out-of-region pattern)", ir.MonitorRejected)
	}
	if !ir.Verdicts[0].OK {
		t.Fatalf("in-region input flagged: %+v", ir.Verdicts[0])
	}
	if ir.Verdicts[1].OK {
		t.Fatalf("out-of-region input accepted although its pattern was rejected at build: %+v", ir.Verdicts[1])
	}
	if ir.Flagged != 1 {
		t.Fatalf("flagged = %d, want 1", ir.Flagged)
	}
}

// TestInferShardedBatchDeterministicAcrossWorkerCounts pins the sharding
// contract: a large batch split across 1, 2 and 7 serving lanes returns
// byte-identical outputs and verdicts — the kernels' fixed accumulation
// order makes the split invisible — and the per-shard /metrics counters
// account for every input exactly once.
func TestInferShardedBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	net := inferNet(21)
	rng := rand.New(rand.NewSource(22))
	dataset := randRows(rng, 48, net.InputDim(), 1)
	inputs := randRows(rng, 512, net.InputDim(), 2) // large enough to shard
	body := inferBody(t, net, inputs, &vnnserver.InferMonitorSpec{Data: dataset, Gamma: 1})

	var responses []vnnserver.InferResponse
	for _, workers := range []int{1, 2, 7} {
		_, ts := newTestServer(t, vnnserver.Config{InferWorkers: workers})
		var ir vnnserver.InferResponse
		if status := postInfer(t, ts.URL, body, &ir); status != http.StatusOK {
			t.Fatalf("workers=%d: status %d", workers, status)
		}
		responses = append(responses, ir)

		m := serverMetrics(t, ts.URL)
		if len(m.Infer.Shards) != workers {
			t.Fatalf("workers=%d: %d shard rows in /metrics", workers, len(m.Infer.Shards))
		}
		var shardInputs int64
		for _, sh := range m.Infer.Shards {
			shardInputs += sh.Inputs
		}
		if shardInputs != int64(len(inputs)) {
			t.Fatalf("workers=%d: shards account for %d inputs, want %d", workers, shardInputs, len(inputs))
		}
	}
	first, _ := json.Marshal(responses[0].Outputs)
	firstV, _ := json.Marshal(responses[0].Verdicts)
	for i := 1; i < len(responses); i++ {
		o, _ := json.Marshal(responses[i].Outputs)
		v, _ := json.Marshal(responses[i].Verdicts)
		if !bytes.Equal(o, first) {
			t.Fatalf("outputs differ between worker counts (run %d)", i)
		}
		if !bytes.Equal(v, firstV) {
			t.Fatalf("verdicts differ between worker counts (run %d)", i)
		}
	}
}

// TestInferByFingerprint pins the warm-path protocol: after one full
// request, a client may send just the fingerprints, skipping the network
// upload and the monitor dataset, and receives byte-identical answers.
// Unknown fingerprints answer 404.
func TestInferByFingerprint(t *testing.T) {
	net := inferNet(23)
	rng := rand.New(rand.NewSource(24))
	dataset := randRows(rng, 32, net.InputDim(), 1)
	inputs := randRows(rng, 8, net.InputDim(), 2)
	_, ts := newTestServer(t, vnnserver.Config{})

	var full vnnserver.InferResponse
	if status := postInfer(t, ts.URL, inferBody(t, net, inputs, &vnnserver.InferMonitorSpec{Data: dataset, Gamma: 1}), &full); status != http.StatusOK {
		t.Fatalf("full request: status %d", status)
	}
	if full.Fingerprint == "" || full.MonitorFingerprint == "" {
		t.Fatal("response did not echo the fingerprints")
	}

	slim, err := json.Marshal(vnnserver.InferRequest{
		Fingerprint:        full.Fingerprint,
		MonitorFingerprint: full.MonitorFingerprint,
		Inputs:             inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ir vnnserver.InferResponse
	if status := postInfer(t, ts.URL, slim, &ir); status != http.StatusOK {
		t.Fatalf("by-fingerprint request: status %d", status)
	}
	if !ir.MonitorCacheHit || ir.MonitorFingerprint != full.MonitorFingerprint {
		t.Fatalf("by-fingerprint request did not reuse the cached monitor: %+v", ir)
	}
	a, _ := json.Marshal(full.Outputs)
	b, _ := json.Marshal(ir.Outputs)
	if !bytes.Equal(a, b) {
		t.Fatal("by-fingerprint outputs differ from the full request")
	}
	av, _ := json.Marshal(full.Verdicts)
	bv, _ := json.Marshal(ir.Verdicts)
	if !bytes.Equal(av, bv) {
		t.Fatal("by-fingerprint verdicts differ from the full request")
	}

	// Unmonitored by-fingerprint inference works too.
	plain, _ := json.Marshal(vnnserver.InferRequest{Fingerprint: full.Fingerprint, Inputs: inputs})
	var pr vnnserver.InferResponse
	if status := postInfer(t, ts.URL, plain, &pr); status != http.StatusOK {
		t.Fatalf("plain by-fingerprint: status %d", status)
	}
	if len(pr.Verdicts) != 0 {
		t.Fatal("plain by-fingerprint request returned verdicts")
	}

	// Unknown fingerprints are 404, telling the client to re-send.
	unknown, _ := json.Marshal(vnnserver.InferRequest{Fingerprint: "vnn1-nope", Inputs: inputs})
	if status := postInfer(t, ts.URL, unknown, nil); status != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d, want 404", status)
	}
	badMon, _ := json.Marshal(vnnserver.InferRequest{
		Fingerprint:        full.Fingerprint,
		MonitorFingerprint: "vnnm1-nope",
		Inputs:             inputs,
	})
	if status := postInfer(t, ts.URL, badMon, nil); status != http.StatusNotFound {
		t.Fatalf("unknown monitor fingerprint: status %d, want 404", status)
	}
	// A fingerprint contradicting the network sent alongside is a 400.
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	contradiction, _ := json.Marshal(vnnserver.InferRequest{
		Network:     netJSON,
		Fingerprint: "vnn1-nope",
		Region:      vnn.RegionSpec{Box: inferBox(net.InputDim())},
		Inputs:      inputs,
	})
	if status := postInfer(t, ts.URL, contradiction, nil); status != http.StatusBadRequest {
		t.Fatalf("contradictory fingerprint: status %d, want 400", status)
	}

	// A workload this node only compiled (a verify, never an infer) serves
	// by fingerprint too: the compiled artifact carries the workload.
	compiledOnly := inferNet(25)
	var vr vnnserver.VerifyResponse
	if status := postVerify(t, ts.URL, boxVerifyBody(t, compiledOnly), &vr); status != http.StatusOK {
		t.Fatalf("verify: status %d", status)
	}
	byFP, _ := json.Marshal(vnnserver.InferRequest{Fingerprint: vr.Fingerprint, Inputs: inputs})
	var cr vnnserver.InferResponse
	if status := postInfer(t, ts.URL, byFP, &cr); status != http.StatusOK {
		t.Fatalf("by-fingerprint infer after verify: status %d, want 200", status)
	}
	for i, x := range inputs {
		for j, want := range servingForward(compiledOnly, x) {
			if got := cr.Outputs[i][j]; got != want {
				t.Fatalf("by-fingerprint after verify: output[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

// BenchmarkInferHTTP measures end-to-end monitored inference throughput
// through the full HTTP stack — the number the CI bench job records as
// BENCH_infer.json.
func BenchmarkInferHTTP(b *testing.B) {
	net := inferNet(11)
	rng := rand.New(rand.NewSource(12))
	dataset := randRows(rng, 64, net.InputDim(), 1)
	inputs := randRows(rng, 64, net.InputDim(), 1)
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(vnnserver.InferRequest{
		Network: netJSON,
		Region:  vnn.RegionSpec{Box: inferBox(net.InputDim())},
		Inputs:  inputs,
		Monitor: &vnnserver.InferMonitorSpec{Data: dataset, Gamma: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := vnnserver.New(vnnserver.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Warm the caches so the loop measures the steady state.
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup status %d", resp.StatusCode)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		// Drain so the connection is reused — a steady-state client runs
		// over keep-alive, not a fresh handshake per batch.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(len(inputs))*float64(b.N)/b.Elapsed().Seconds(), "inputs/s")
}

// BenchmarkInferHTTPByFingerprint measures the warm serving protocol: the
// network and monitor travel as fingerprints, so the request carries only
// the batch and the server runs straight into the sharded batched
// kernels. This is the steady-state number a deployed client sees.
func BenchmarkInferHTTPByFingerprint(b *testing.B) {
	net := inferNet(11)
	rng := rand.New(rand.NewSource(12))
	dataset := randRows(rng, 64, net.InputDim(), 1)
	inputs := randRows(rng, 64, net.InputDim(), 1)
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		b.Fatal(err)
	}
	full, err := json.Marshal(vnnserver.InferRequest{
		Network: netJSON,
		Region:  vnn.RegionSpec{Box: inferBox(net.InputDim())},
		Inputs:  inputs,
		Monitor: &vnnserver.InferMonitorSpec{Data: dataset, Gamma: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := vnnserver.New(vnnserver.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(full))
	if err != nil {
		b.Fatal(err)
	}
	var warm vnnserver.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup status %d", resp.StatusCode)
	}
	body, err := json.Marshal(vnnserver.InferRequest{
		Fingerprint:        warm.Fingerprint,
		MonitorFingerprint: warm.MonitorFingerprint,
		Inputs:             inputs,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		// Drain so the connection is reused — a steady-state client runs
		// over keep-alive, not a fresh handshake per batch.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(len(inputs))*float64(b.N)/b.Elapsed().Seconds(), "inputs/s")
}
