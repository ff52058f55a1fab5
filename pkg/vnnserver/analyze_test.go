package vnnserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// analyzeBody marshals an analyze request.
func analyzeBody(t *testing.T, net *vnn.Network, region vnn.RegionSpec, analyses []vnn.AnalysisSpec, opts vnnserver.QueryOptions, wait *bool) []byte {
	t.Helper()
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(vnnserver.AnalyzeRequest{
		Network:  netJSON,
		Region:   region,
		Analyses: analyses,
		Options:  opts,
		Wait:     wait,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postAnalyze POSTs an analyze request and decodes the response into out,
// returning the HTTP status.
func postAnalyze(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
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

// smallNet builds a tiny deterministic ReLU network with a matching box
// region for fast portfolio round trips.
func smallNet(t *testing.T) (*vnn.Network, vnn.RegionSpec) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	net := vnn.NewNetwork(vnn.NetworkConfig{
		Name: "portfolio-sm", InputDim: 2, Hidden: []int{4}, OutputDim: 2,
		HiddenAct: vnn.ReLU, OutputAct: vnn.Identity,
	}, rng)
	return net, vnn.RegionSpec{Box: [][2]float64{{0, 1}, {0, 1}}}
}

// TestAnalyzeQuantSweep16ConcurrentOneCompilePerWidth is the analyze
// endpoint's acceptance contract: 16 concurrent identical quant-sweep
// requests over 3 bit-widths perform exactly one compile for the base
// model plus one per width — pinned by the server's encode-pass total —
// and every per-width verified bound is bit-identical to the
// CLI path (vnn.Quantize + vnn.Compile + vnn.Verify with the same pinned
// worker count).
func TestAnalyzeQuantSweep16ConcurrentOneCompilePerWidth(t *testing.T) {
	pred := core.NewPredictorNet(1, 8, 1, 3)
	outs := pred.MuLatOutputs()
	bits := []int{8, 6, 4}
	ctx := context.Background()
	cliOpts := vnn.Options{Workers: 1}

	// CLI reference: the float baseline and one quantized run per width.
	cn, err := vnn.Compile(ctx, pred.Net, vnn.LeftOccupiedRegion(), cliOpts)
	if err != nil {
		t.Fatal(err)
	}
	baseRef, err := vnn.VerifyOne(ctx, cn, vnn.MaxOverOutputs(outs...))
	if err != nil {
		t.Fatal(err)
	}
	widthRef := make([]*vnn.Result, len(bits))
	for i, b := range bits {
		qnet, _, err := vnn.Quantize(pred.Net, b)
		if err != nil {
			t.Fatal(err)
		}
		qcn, err := vnn.Compile(ctx, qnet, vnn.LeftOccupiedRegion(), cliOpts)
		if err != nil {
			t.Fatal(err)
		}
		if widthRef[i], err = vnn.VerifyOne(ctx, qcn, vnn.MaxOverOutputs(outs...)); err != nil {
			t.Fatal(err)
		}
	}

	srv, ts := newTestServer(t, vnnserver.Config{QueueDepth: 64})
	body := analyzeBody(t, pred.Net, vnn.RegionSpec{Name: "left_occupied"},
		[]vnn.AnalysisSpec{{
			Kind:       vnn.KindQuantSweep,
			Bits:       bits,
			Properties: []vnn.PropertySpec{{Kind: "max", Outputs: outs}},
		}},
		vnnserver.QueryOptions{Workers: 1}, nil)

	before := srv.Metrics()
	const clients = 16
	responses := make([]vnnserver.AnalyzeResponse, clients)
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			statuses[slot] = postAnalyze(t, ts.URL, body, &responses[slot])
		}(i)
	}
	wg.Wait()

	// Exactly one compile for the base model plus one per width, across
	// the whole stampede.
	want := int64(1 + len(bits))
	m := srv.Metrics()
	if d := m.EncodePasses - before.EncodePasses; d != want {
		t.Fatalf("server performed %d encode passes for %d identical sweeps, want %d (base + one per width)",
			d, clients, want)
	}

	for i := range responses {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if len(responses[i].Analyses) != 1 {
			t.Fatalf("request %d: %d analyses", i, len(responses[i].Analyses))
		}
		qs := responses[i].Analyses[0].QuantSweep
		if qs == nil || len(qs.Points) != len(bits) {
			t.Fatalf("request %d: malformed sweep %+v", i, qs)
		}
		if got := *qs.Base[0].Value; math.Float64bits(got) != math.Float64bits(baseRef.Value) {
			t.Fatalf("request %d: base value %x != CLI %x", i,
				math.Float64bits(got), math.Float64bits(baseRef.Value))
		}
		for j, pt := range qs.Points {
			if pt.Bits != bits[j] {
				t.Fatalf("request %d point %d: bits %d", i, j, pt.Bits)
			}
			if got := *pt.Results[0].Value; math.Float64bits(got) != math.Float64bits(widthRef[j].Value) {
				t.Fatalf("request %d int%d: value %x != CLI %x", i, pt.Bits,
					math.Float64bits(got), math.Float64bits(widthRef[j].Value))
			}
			if got := *pt.Results[0].UpperBound; math.Float64bits(got) != math.Float64bits(widthRef[j].UpperBound) {
				t.Fatalf("request %d int%d: bound %x != CLI %x", i, pt.Bits,
					math.Float64bits(got), math.Float64bits(widthRef[j].UpperBound))
			}
		}
	}

	// The cache now holds every distinct artifact: base + one per width.
	if got := m.Cache.Size; got != 1+len(bits) {
		t.Fatalf("cache holds %d artifacts, want %d", got, 1+len(bits))
	}
	// Per-kind accounting: every completed batch counted its sweep.
	if m.Analyses[vnn.KindQuantSweep] != clients || m.AnalyzeRequests != clients {
		t.Fatalf("metrics: %+v", m.Analyses)
	}
}

// TestAnalyzePortfolioRoundTrip drives a whole portfolio batch — data
// validation, coverage, traceability, verification, falsification —
// through HTTP and checks each finding plus the per-kind counters.
func TestAnalyzePortfolioRoundTrip(t *testing.T) {
	net, region := smallNet(t)
	// The last sample violates the range rule — the validation finding
	// must flag exactly it.
	data := [][]float64{{0.1, 0.9}, {0.8, 0.2}, {0.5, 0.5}, {1.5, 0.9}}
	labels := [][]float64{{0}, {0}, {0}, {2}}

	srv, ts := newTestServer(t, vnnserver.Config{})
	body := analyzeBody(t, net, region, []vnn.AnalysisSpec{
		{Kind: vnn.KindDataValidation, Data: data, Labels: labels, Rules: []vnn.DataRuleSpec{
			{Kind: "finite"},
			{Kind: "range", Lo: f64(0), Hi: f64(1)},
			{Kind: "dimensions", XDim: 2, YDim: 1},
		}},
		{Kind: vnn.KindCoverage, Data: data, MaxTests: 400, Seed: 5},
		{Kind: vnn.KindTraceability, Data: data, TopK: 2},
		{Kind: vnn.KindVerify, Properties: []vnn.PropertySpec{
			{Kind: "max", Outputs: []int{0}},
			{Kind: "at_most", Output: intp(0), Threshold: f64(1000)},
		}},
		{Kind: vnn.KindFalsify, Outputs: []int{0}, Restarts: 2, Steps: 10},
	}, vnnserver.QueryOptions{Workers: 1}, nil)

	var resp vnnserver.AnalyzeResponse
	if status := postAnalyze(t, ts.URL, body, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Analyses) != 5 {
		t.Fatalf("%d analyses returned", len(resp.Analyses))
	}
	dv := resp.Analyses[0].DataValidation
	if dv == nil || dv.Samples != 4 || dv.Valid || dv.Violations != 1 {
		t.Fatalf("data validation: %+v", dv)
	}
	if dv.PerRule["input-range"] != 1 || len(dv.Details) != 1 || dv.Details[0].SampleIndex != 3 {
		t.Fatalf("violation detail: %+v", dv)
	}
	cov := resp.Analyses[1].Coverage
	if cov == nil || cov.Tests < len(data) || cov.BranchCombinations != "16" {
		t.Fatalf("coverage: %+v", cov)
	}
	tr := resp.Analyses[2].Traceability
	if tr == nil || tr.Neurons != 4 || len(tr.NeuronDetails) != 4 {
		t.Fatalf("traceability: %+v", tr)
	}
	if tr.AlwaysActive+tr.AlwaysInactive+tr.Conditional != 4 {
		t.Fatalf("conditions don't cover all neurons: %+v", tr)
	}
	ver := resp.Analyses[3]
	if len(ver.Results) != 2 || ver.Results[0].Outcome != "proved" {
		t.Fatalf("verification: %+v", ver.Results)
	}
	fa := resp.Analyses[4].Falsification
	if fa == nil || len(fa.Best) != 2 || fa.Evaluations <= 0 {
		t.Fatalf("falsification: %+v", fa)
	}
	// The finding is a witness: the network really outputs Value at Best.
	if got := net.Forward(fa.Best)[0]; math.Abs(got-fa.Value) > 1e-12 {
		t.Fatalf("falsifier value %g replays to %g", fa.Value, got)
	}
	// The attack's reach can never exceed the verified maximum.
	if fa.Value > *ver.Results[0].Value+1e-9 {
		t.Fatalf("attack %g beats verified %g", fa.Value, *ver.Results[0].Value)
	}
	// Flattened verification results for legacy report consumers.
	if len(resp.Results) != 2 || resp.Worst != "proved" {
		t.Fatalf("flattened report: worst %q, %d results", resp.Worst, len(resp.Results))
	}

	m := srv.Metrics()
	for _, kind := range []string{vnn.KindDataValidation, vnn.KindCoverage, vnn.KindTraceability, vnn.KindVerify, vnn.KindFalsify} {
		if m.Analyses[kind] != 1 {
			t.Fatalf("metrics missing kind %q: %+v", kind, m.Analyses)
		}
	}
}

func TestAnalyzeValidationErrors(t *testing.T) {
	net, region := smallNet(t)
	_, ts := newTestServer(t, vnnserver.Config{})
	five, low := 5.0, -1e300
	cases := [][]vnn.AnalysisSpec{
		nil, // no analyses
		{{Kind: "nope"}},
		{{Kind: vnn.KindVerify}},   // no properties
		{{Kind: vnn.KindCoverage}}, // no data/budget
		{{Kind: vnn.KindTraceability, Data: [][]float64{{1}}}}, // wrong dim
		{{Kind: vnn.KindFalsify, Outputs: []int{5}}},           // bad output
		{{Kind: vnn.KindQuantSweep, Bits: []int{64}, Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{0}}}}},
		{{Kind: vnn.KindVerify, Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{9}}}}},
		// Resilience nominal points outside the box and above the threshold.
		{{Kind: vnn.KindVerify, Properties: []vnn.PropertySpec{{Kind: "resilience", X0: []float64{2, 0}, Output: new(int), Threshold: &five}}}},
		{{Kind: vnn.KindQuantSweep, Bits: []int{8}, Properties: []vnn.PropertySpec{{Kind: "resilience", X0: []float64{0.5, 0.5}, Output: new(int), Threshold: &low}}}},
		// Per-request work caps: the analyze endpoint refuses open-ended
		// compute.
		{{Kind: vnn.KindFalsify, Outputs: []int{0}, Restarts: 100000000, Steps: 10}},
		{{Kind: vnn.KindCoverage, MaxTests: 1 << 24}},
		{{Kind: vnn.KindQuantSweep, Bits: bitsLadder(40), Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{0}}}}},
	}
	for i, analyses := range cases {
		body := analyzeBody(t, net, region, analyses, vnnserver.QueryOptions{}, nil)
		var eresp map[string]any
		if status := postAnalyze(t, ts.URL, body, &eresp); status != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400 (%v)", i, status, eresp)
		}
	}
}

// TestAnalyzeFalsifyEmptyRegion: a falsify analysis over a region no box
// point satisfies — x0 + x1 ≥ 5 over the unit box — finds no starting
// point. That is the request's fault, so it answers 400, not 500.
func TestAnalyzeFalsifyEmptyRegion(t *testing.T) {
	net, region := smallNet(t)
	region.Linear = []vnn.LinearConstraintSpec{{Coeffs: map[string]float64{"0": 1, "1": 1}, Sense: ">=", RHS: 5}}
	_, ts := newTestServer(t, vnnserver.Config{})
	body := analyzeBody(t, net, region, []vnn.AnalysisSpec{
		{Kind: vnn.KindFalsify, Outputs: []int{0}, Restarts: 2, Steps: 5},
	}, vnnserver.QueryOptions{Workers: 1}, nil)
	st, raw := post(t, ts.URL+"/v1/analyze", body)
	if st != http.StatusBadRequest || !bytes.Contains(raw, []byte("no starting point")) {
		t.Fatalf("status %d body %s, want 400 naming the missing starting point", st, raw)
	}
}

// TestAnalyzeFalsifyCutShort pins what a falsify analysis answers when
// the budget fires before its first PGD evaluation: the attack has no
// value at all then (-Inf, which JSON cannot carry), so every attempt is a
// 504 with the JSON error envelope — whether the deadline catches the job
// in the queue or in the attack — never a 200 with an empty body.
func TestAnalyzeFalsifyCutShort(t *testing.T) {
	net, region := smallNet(t)
	_, ts := newTestServer(t, vnnserver.Config{DefaultTimeout: time.Nanosecond})
	body := analyzeBody(t, net, region, []vnn.AnalysisSpec{
		{Kind: vnn.KindFalsify, Outputs: []int{0}, Restarts: 1024, Steps: 10000},
	}, vnnserver.QueryOptions{Workers: 1}, nil)
	for i := 0; i < 16; i++ {
		st, raw := post(t, ts.URL+"/v1/analyze", body)
		var envelope struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &envelope); st != http.StatusGatewayTimeout || err != nil || envelope.Error == "" {
			t.Fatalf("attempt %d: status %d body %q (%v), want 504 with a JSON error", i, st, raw, err)
		}
	}
}

// TestAnalyzeAsyncResultRetrieval submits an async portfolio batch and
// fetches the finished report through GET /v1/analyze/{id}.
func TestAnalyzeAsyncResultRetrieval(t *testing.T) {
	net, region := smallNet(t)
	_, ts := newTestServer(t, vnnserver.Config{})
	wait := false
	body := analyzeBody(t, net, region, []vnn.AnalysisSpec{
		{Kind: vnn.KindCoverage, MaxTests: 200, Seed: 2},
		{Kind: vnn.KindVerify, Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{0}}}},
	}, vnnserver.QueryOptions{Workers: 1}, &wait)

	var acc vnnserver.AcceptedResponse
	if status := postAnalyze(t, ts.URL, body, &acc); status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	if acc.ID == "" {
		t.Fatal("no job id")
	}
	var resp vnnserver.AnalyzeResponse
	for {
		r, err := http.Get(ts.URL + "/v1/analyze/" + acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		done := r.StatusCode == http.StatusOK
		if !done && r.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", r.StatusCode)
		}
		if done {
			if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			break
		}
		r.Body.Close()
	}
	if len(resp.Analyses) != 2 || resp.Analyses[0].Coverage == nil {
		t.Fatalf("async report malformed: %+v", resp.Analyses)
	}
}

func f64(v float64) *float64 { return &v }
func intp(v int) *int        { return &v }

// bitsLadder builds an n-long list of valid bit-widths (for cap tests).
func bitsLadder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 2 + i%15
	}
	return out
}
