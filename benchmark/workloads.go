package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataval"
	"repro/internal/highway"
	"repro/internal/train"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// The four workloads, in the order they are reported.
var workloadNames = []string{"table2_cold", "dossier_shared", "infer_hot", "infer_churn"}

const (
	coldWidth    = 8 // table2_cold, infer_*: the I2x8 predictor
	dossierWidth = 6 // dossier_shared: the I2x6 predictor
	// coldShrink is the largest share of a feature's interval that
	// table2_cold cuts from each end: enough that no two requests share a
	// fingerprint, and every request is its own search.
	coldShrink = 0.30
	// coldPool is how many distinct table2_cold requests are prepared. A
	// request is sent once, so the pool bounds the window; it is several
	// times what the reference box gets through.
	coldPool      = 256
	dossierBodies = 64
	inferBatch    = 64  // inputs per /v1/infer request
	hotBodies     = 64  // distinct infer_hot requests, cycled
	hotMonitor    = 512 // dataset rows infer_hot's monitor is built from
	// churnBodies is 1.5 times vnnd's default 64-entry compile, workload
	// and monitor caches: cycled in order, an entry is always evicted
	// before its request comes round again.
	churnBodies  = 96
	churnMonitor = 256
	// effortOps is how many leading requests of a workload the exact
	// effort counters (milp.nodes, lp.pivots) are summed over. A fixed
	// prefix makes them comparable between runs of different length.
	effortOps = 16
)

// fixture is the set-up common to every workload: the simulator dataset
// and the two trained predictors, exactly as bench_test.go builds them.
type fixture struct {
	rows      [][]float64 // sanitised inputs, every one inside [0,1]^84
	nets      map[int]*vnn.Network
	netJSON   map[int][]byte
	oracles   map[int]*oracleNet
	datasetMS float64
	fitMS     float64
}

func newFixture() (*fixture, error) {
	start := time.Now()
	cfg := highway.DefaultDatasetConfig()
	cfg.Episodes = 3
	cfg.StepsPerEpisode = 150
	cfg.Sim.Seed = 1
	data, err := highway.GenerateDataset(cfg)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	clean, _ := dataval.Sanitize(data, core.SafetyRules(1e-9))
	fx := &fixture{
		nets:    map[int]*vnn.Network{},
		netJSON: map[int][]byte{},
		oracles: map[int]*oracleNet{},
	}
	for _, s := range clean {
		fx.rows = append(fx.rows, s.X)
	}
	fx.datasetMS = msSince(start)
	start = time.Now()
	for _, w := range []int{dossierWidth, coldWidth} {
		pred := core.NewPredictorNet(2, w, 2, int64(w)*31+7)
		tr := &train.Trainer{
			Net: pred.Net, Loss: train.MDN{K: 2}, Opt: train.NewAdam(0.003),
			BatchSize: 64, Rng: rand.New(rand.NewSource(int64(w))), ClipNorm: 20,
		}
		tr.Fit(clean, 10)
		fx.nets[w] = pred.Net
		if fx.netJSON[w], err = vnn.MarshalNetwork(pred.Net); err != nil {
			return nil, err
		}
		if fx.oracles[w], err = parseOracle(fx.netJSON[w]); err != nil {
			return nil, err
		}
	}
	fx.fitMS = msSince(start)
	return fx, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// workload is one traffic mix: prepared request bodies, how they are sent,
// and how each reply is checked.
type workload struct {
	name    string
	route   string
	width   int     // which predictor it drives
	clients int     // closed-loop clients, each on its own connection
	tail    float64 // the percentile reported as latency_tail_ms
	// tailPerSlice: thousands of operations a second support the tail
	// percentile in every slice of the window, and the median slice is
	// reported; otherwise the percentile is over the whole window.
	tailPerSlice bool
	// warm requests are sent, un-timed and checked for status only, once
	// vnnd is ready; they belong to set-up.
	warm   [][]byte
	bodies [][]byte
	// once means a body is sent a single time (a repeat would hit the
	// compile cache); otherwise the bodies are cycled in order.
	once bool
	// wantHit is what every reply must say about the cache it went through.
	wantHit bool
	// check validates the reply to bodies[i] and returns what it reports.
	check func(i int, reply []byte) (facts, error)
	// verified[i] is a reply to bodies[i] that passed check. /v1/infer
	// replies are a function of the body alone, so a byte-identical reply
	// needs no second decode; that keeps the generator's own CPU use, on
	// the cores it shares with vnnd, small. Anything else is checked in
	// full.
	verified []verifiedReply
	mu       sync.Mutex
}

type verifiedReply struct {
	reply []byte
	facts facts
}

// facts is what one checked reply reports about the work behind it, by
// key: solver effort, per-analysis time, cache and monitor outcomes.
type facts map[string]float64

// solved adds the verdicts of a reply: solver time and effort counters.
func (f facts) solved(results ...vnn.ResultJSON) {
	for _, r := range results {
		f["verdicts"]++
		f["solve_ms"] += r.Stats.ElapsedMS
		f["nodes"] += float64(r.Stats.Nodes)
		f["pivots"] += float64(r.Stats.LPPivots)
		f["binaries"] += float64(r.Stats.Binaries)
		f["hidden"] += float64(r.Stats.HiddenNeurons)
	}
}

// tally sums the facts of a window's replies. effort keeps the solver
// counters of the first effortOps bodies apart, request by request.
type tally struct {
	mu     sync.Mutex
	sums   facts
	effort map[int][2]float64 // body index -> {nodes, pivots}
}

func newTally() *tally { return &tally{sums: facts{}, effort: map[int][2]float64{}} }

func (t *tally) apply(i int, f facts) {
	t.mu.Lock()
	for k, v := range f {
		t.sums[k] += v
	}
	if i < effortOps && f["verdicts"] > 0 {
		t.effort[i] = [2]float64{f["nodes"], f["pivots"]}
	}
	t.mu.Unlock()
}

// checkReply is the entry point the load generator calls.
func (w *workload) checkReply(i int, reply []byte, t *tally) error {
	if w.verified != nil {
		w.mu.Lock()
		v := w.verified[i]
		w.mu.Unlock()
		if bytes.Equal(v.reply, reply) {
			t.apply(i, v.facts)
			return nil
		}
	}
	f, err := w.check(i, reply)
	if err != nil {
		return err
	}
	t.apply(i, f)
	if w.verified != nil {
		w.mu.Lock()
		w.verified[i] = verifiedReply{reply, f}
		w.mu.Unlock()
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of floats and strings always marshal
	}
	return data
}

func boxOf(r *vnn.Region) [][2]float64 {
	box := make([][2]float64, len(r.Box))
	for i, iv := range r.Box {
		box[i] = [2]float64{iv.Lo, iv.Hi}
	}
	return box
}

func unitBox(dim int) [][2]float64 {
	box := make([][2]float64, dim)
	for i := range box {
		box[i] = [2]float64{0, 1}
	}
	return box
}

// pick draws n dataset rows, seeded.
func pick(rows [][]float64, n int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = rows[rng.Intn(len(rows))]
	}
	return out
}

// fingerprints computes the identifiers vnnd will give a monitored
// workload: the compile fingerprint and the built monitor's content hash.
func fingerprints(net *vnn.Network, spec *vnn.RegionSpec, build [][]float64) (fp, monFP string, err error) {
	region, err := spec.Region()
	if err != nil {
		return "", "", err
	}
	if fp, err = vnn.Fingerprint(net, region, vnn.Options{}); err != nil {
		return "", "", err
	}
	cn, err := vnn.Compile(context.Background(), net, region, vnn.Options{})
	if err != nil {
		return "", "", err
	}
	mon, err := vnn.BuildMonitor(cn, build, vnn.MonitorOptions{Gamma: 1})
	if err != nil {
		return "", "", err
	}
	return fp, mon.Fingerprint(), nil
}

// buildWorkload prepares the named workload from the seed.
func buildWorkload(name string, fx *fixture, seed int64, golden []string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "table2_cold":
		return buildCold(fx, rng, seed, golden), nil
	case "dossier_shared":
		return buildDossier(fx, rng, seed), nil
	case "infer_hot":
		return buildHot(fx, rng)
	case "infer_churn":
		return buildChurn(fx, rng)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// buildCold: Table II's query, "how far left can the predictor steer when
// the left lane is occupied", asked once each of many never-seen regions.
// One client, so vnnd's fair share gives the search every core.
func buildCold(fx *fixture, rng *rand.Rand, seed int64, golden []string) *workload {
	outs := vnn.MuLatOutputs(2)
	w := &workload{name: "table2_cold", route: "/v1/verify", width: coldWidth, clients: 1, tail: 0.80, once: true}
	boxes := make([][][2]float64, coldPool)
	for i := range boxes {
		box := boxOf(vnn.LeftOccupiedRegion())
		for j, iv := range box {
			if iv == [2]float64{0, 1} { // the pinned left-neighbour features stay put
				box[j] = [2]float64{rng.Float64() * coldShrink, 1 - rng.Float64()*coldShrink}
			}
		}
		boxes[i] = box
		w.bodies = append(w.bodies, mustJSON(vnnserver.VerifyRequest{
			Network:    fx.netJSON[coldWidth],
			Region:     vnn.RegionSpec{Box: box},
			Properties: []vnn.PropertySpec{{Kind: "max", Outputs: outs}},
			Options:    vnnserver.QueryOptions{Tighten: i%2 == 1},
		}))
	}
	oracle := fx.oracles[coldWidth]
	w.check = func(i int, reply []byte) (facts, error) {
		var resp vnnserver.VerifyResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) != 1 {
			return nil, fmt.Errorf("verify: %d results, want 1", len(resp.Results))
		}
		if resp.CacheHit {
			return nil, fmt.Errorf("verify: request %d hit the compile cache; every region is new", i)
		}
		r := &resp.Results[0]
		if err := oracle.checkExtremum(r, boxes[i], outs, +1, sampleBox(boxes[i], oracleSamples, seed+int64(i))); err != nil {
			return nil, err
		}
		if i < len(golden) {
			if got := fmt.Sprintf("%.6f", *r.Value); got != golden[i] {
				return nil, fmt.Errorf("verify: request %d value %s, golden %s", i, got, golden[i])
			}
		}
		f := facts{}
		f.solved(*r)
		return f, nil
	}
	return w
}

// dossierRegions are the two workloads dossier_shared compiles once and
// then asks about many times.
var dossierRegions = []struct {
	name    string
	region  func() *vnn.Region
	outputs func(k int) []int
}{
	{"left_occupied", vnn.LeftOccupiedRegion, vnn.MuLatOutputs},
	{"front_close", vnn.FrontCloseRegion, vnn.MuLongOutputs},
}

// buildDossier: Table I's portfolio (coverage, traceability, quantisation
// sweep, verification, falsification) in one request, over two workloads
// that stay compiled. workers is pinned to 1: fair-share worker counts
// depend on what else is in flight, and so would the node counts.
func buildDossier(fx *fixture, rng *rand.Rand, seed int64) *workload {
	w := &workload{name: "dossier_shared", route: "/v1/analyze", width: dossierWidth,
		clients: runtime.NumCPU(), tail: 0.95, wantHit: true}
	traceRows := pick(fx.rows, 128, rng)
	thresholds := make([]float64, dossierBodies)
	body := func(ri int, threshold float64, analysisSeed int64) []byte {
		outs := dossierRegions[ri].outputs(2)
		return mustJSON(vnnserver.AnalyzeRequest{
			Network: fx.netJSON[dossierWidth],
			Region:  vnn.RegionSpec{Name: dossierRegions[ri].name},
			Analyses: []vnn.AnalysisSpec{
				{Kind: vnn.KindCoverage, MaxTests: 400, Seed: analysisSeed},
				{Kind: vnn.KindTraceability, Data: traceRows, TopK: 3},
				{Kind: vnn.KindQuantSweep, Bits: []int{8, 6}, Properties: []vnn.PropertySpec{{Kind: "max", Outputs: outs}}},
				{Kind: vnn.KindVerify, Properties: []vnn.PropertySpec{
					{Kind: "at_most", Output: &outs[0], Threshold: &threshold},
					{Kind: "min", Output: &outs[0]},
				}},
				{Kind: vnn.KindFalsify, Outputs: outs[:1], Restarts: 8, Steps: 40, Seed: analysisSeed},
			},
			Options: vnnserver.QueryOptions{Workers: 1},
		})
	}
	for ri := range dossierRegions {
		w.warm = append(w.warm, body(ri, 3, 1))
	}
	for i := 0; i < dossierBodies; i++ {
		thresholds[i] = 1 + 4*rng.Float64()
		w.bodies = append(w.bodies, body(i%2, thresholds[i], rng.Int63()))
	}
	oracle := fx.oracles[dossierWidth]
	var boxes [2][][2]float64
	var samples [2][][]float64
	for ri, dr := range dossierRegions {
		boxes[ri] = boxOf(dr.region())
		samples[ri] = sampleBox(boxes[ri], oracleSamples, seed+int64(ri))
	}
	kinds := []string{vnn.KindCoverage, vnn.KindTraceability, vnn.KindQuantSweep, vnn.KindVerify, vnn.KindFalsify}
	w.check = func(i int, reply []byte) (facts, error) {
		var resp vnnserver.AnalyzeResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return nil, err
		}
		ri := i % 2
		outs := dossierRegions[ri].outputs(2)
		f := facts{"hits": b2f(resp.CacheHit)}
		if !resp.CacheHit {
			return nil, fmt.Errorf("analyze: request %d missed the compile cache; both workloads were warmed", i)
		}
		if len(resp.Analyses) != len(kinds) {
			return nil, fmt.Errorf("analyze: %d findings, want %d", len(resp.Analyses), len(kinds))
		}
		for k, a := range resp.Analyses {
			if a.Kind != kinds[k] {
				return nil, fmt.Errorf("analyze: finding %d is %q, want %q", k, a.Kind, kinds[k])
			}
			f[a.Kind+"_ms"] = a.ElapsedMS
		}
		if c := resp.Analyses[0].Coverage; c == nil || c.Tests == 0 || c.Tests > 400 {
			return nil, fmt.Errorf("analyze: coverage finding %+v, want 1..400 tests", c)
		}
		if tr := resp.Analyses[1].Traceability; tr == nil || tr.Neurons != 2*dossierWidth {
			return nil, fmt.Errorf("analyze: traceability finding %+v, want %d neurons", tr, 2*dossierWidth)
		}
		qs := resp.Analyses[2].QuantSweep
		if qs == nil || len(qs.Base) != 1 || len(qs.Points) != 2 {
			return nil, fmt.Errorf("analyze: quant sweep finding malformed")
		}
		if err := oracle.checkExtremum(&qs.Base[0], boxes[ri], outs, +1, samples[ri]); err != nil {
			return nil, err
		}
		regionMax := *qs.Base[0].Value
		vr := resp.Analyses[3].Results
		if len(vr) != 2 {
			return nil, fmt.Errorf("analyze: %d verify results, want 2", len(vr))
		}
		if err := oracle.checkAtMost(&vr[0], boxes[ri], outs[0], thresholds[i], regionMax, samples[ri]); err != nil {
			return nil, err
		}
		if err := oracle.checkExtremum(&vr[1], boxes[ri], outs[:1], -1, samples[ri]); err != nil {
			return nil, err
		}
		fa := resp.Analyses[4].Falsification
		if fa == nil || !inBox(fa.Best, boxes[ri]) {
			return nil, fmt.Errorf("analyze: falsification finding missing or outside the region")
		}
		if got := oracle.forward(fa.Best)[outs[0]]; got-fa.Value > valueTol || fa.Value-got > valueTol || got > regionMax+valueTol {
			return nil, fmt.Errorf("analyze: falsifier value %.9f replays to %.9f (proven maximum %.9f)", fa.Value, got, regionMax)
		}
		solved := append([]vnn.ResultJSON{qs.Base[0]}, vr...)
		for _, pt := range qs.Points {
			solved = append(solved, pt.Results...)
		}
		f.solved(solved...)
		return f, nil
	}
	return w
}

// inferCheck builds the reply check both infer workloads share: outputs
// equal the oracle's, one verdict per input, and every input that the
// monitor was built from is in-pattern.
func inferCheck(w *workload, oracle *oracleNet, inputs [][][]float64, inBuild [][]bool, wantFP, wantMonFP []string) {
	want := make([][][]float64, len(inputs))
	for i, batch := range inputs {
		want[i] = make([][]float64, len(batch))
		for j, x := range batch {
			want[i][j] = oracle.forward(x)
		}
	}
	w.verified = make([]verifiedReply, len(inputs))
	w.check = func(i int, reply []byte) (facts, error) {
		var resp vnnserver.InferResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return nil, err
		}
		if err := checkOutputs(resp.Outputs, want[i]); err != nil {
			return nil, err
		}
		if resp.Fingerprint != wantFP[i] || (wantMonFP != nil && resp.MonitorFingerprint != wantMonFP[i]) {
			return nil, fmt.Errorf("infer: reply names workload %s monitor %s, request %d is %s", resp.Fingerprint, resp.MonitorFingerprint, i, wantFP[i])
		}
		if len(resp.Verdicts) != len(want[i]) {
			return nil, fmt.Errorf("infer: %d verdicts for %d inputs", len(resp.Verdicts), len(want[i]))
		}
		flagged := 0
		for j, v := range resp.Verdicts {
			if !v.OK {
				flagged++
				if inBuild[i][j] {
					return nil, fmt.Errorf("infer: input %d of request %d is in the monitor's build set yet out of pattern", j, i)
				}
			}
		}
		if flagged != resp.Flagged {
			return nil, fmt.Errorf("infer: flagged says %d, verdicts say %d", resp.Flagged, flagged)
		}
		// infer_hot goes by fingerprint and never consults the compile
		// cache, so the monitor cache answers for it; infer_churn must
		// miss both.
		hit := resp.MonitorCacheHit
		if !w.wantHit {
			hit = resp.CacheHit || resp.MonitorCacheHit
		}
		if hit != w.wantHit {
			return nil, fmt.Errorf("infer: request %d cache_hit=%v monitor_cache_hit=%v, workload expects hit=%v", i, resp.CacheHit, resp.MonitorCacheHit, w.wantHit)
		}
		return facts{
			"hits":     b2f(hit),
			"inputs":   float64(len(resp.Verdicts)),
			"flagged":  float64(flagged),
			"patterns": float64(resp.MonitorPatterns),
		}, nil
	}
}

// inferInputs draws batches for the infer workloads: the first half of
// every batch comes from the monitor's build rows, the rest from the whole
// dataset.
func inferInputs(fx *fixture, build [][]float64, n int, rng *rand.Rand) (inputs [][][]float64, inBuild [][]bool) {
	for i := 0; i < n; i++ {
		batch := append(pick(build, inferBatch/2, rng), pick(fx.rows, inferBatch/2, rng)...)
		flags := make([]bool, inferBatch)
		for j := range flags {
			flags[j] = j < inferBatch/2
		}
		inputs = append(inputs, batch)
		inBuild = append(inBuild, flags)
	}
	return inputs, inBuild
}

// buildHot: the deployed steady state. One workload and its monitor are
// uploaded once; every timed request names them by fingerprint and carries
// only inputs, so every cache is read-only and the request is decode,
// net/http, bookkeeping and encode around a microsecond forward pass.
func buildHot(fx *fixture, rng *rand.Rand) (*workload, error) {
	w := &workload{name: "infer_hot", route: "/v1/infer", width: coldWidth, clients: runtime.NumCPU(), tail: 0.99, tailPerSlice: true, wantHit: true}
	build := pick(fx.rows, hotMonitor, rng)
	dim := len(fx.rows[0])
	region := vnn.RegionSpec{Box: unitBox(dim)}
	inputs, inBuild := inferInputs(fx, build, hotBodies, rng)
	w.warm = [][]byte{mustJSON(vnnserver.InferRequest{
		Network: fx.netJSON[coldWidth], Region: region, Inputs: inputs[0],
		Monitor: &vnnserver.InferMonitorSpec{Data: build, Gamma: 1},
	})}
	// The identifiers the warm reply will echo are computed here so that
	// every body exists before vnnd boots; the replies are checked
	// against them.
	fp, monFP, err := fingerprints(fx.nets[coldWidth], &region, build)
	if err != nil {
		return nil, err
	}
	fps, monFPs := make([]string, hotBodies), make([]string, hotBodies)
	for i := range inputs {
		fps[i], monFPs[i] = fp, monFP
		w.bodies = append(w.bodies, mustJSON(vnnserver.InferRequest{Fingerprint: fp, MonitorFingerprint: monFP, Inputs: inputs[i]}))
	}
	inferCheck(w, fx.oracles[coldWidth], inputs, inBuild, fps, monFPs)
	return w, nil
}

// buildChurn: the same decoders, caches and monitor code used the other
// way. Every request carries the whole workload, and there are more
// distinct workloads than cache entries, so every request parses a
// network, compiles, builds a monitor, inserts and evicts.
func buildChurn(fx *fixture, rng *rand.Rand) (*workload, error) {
	w := &workload{name: "infer_churn", route: "/v1/infer", width: coldWidth, clients: runtime.NumCPU(), tail: 0.99, tailPerSlice: true}
	build := pick(fx.rows, churnMonitor, rng)
	dim := len(fx.rows[0])
	inputs, inBuild := inferInputs(fx, build, churnBodies, rng)
	fps := make([]string, churnBodies)
	for i := range inputs {
		// Widening one coordinate keeps every dataset row inside the
		// region and makes the workload a new one.
		box := unitBox(dim)
		box[i%dim][0] = -float64(i+1) * 1e-3 * (1 + rng.Float64())
		spec := vnn.RegionSpec{Box: box}
		region, err := spec.Region()
		if err == nil {
			fps[i], err = vnn.Fingerprint(fx.nets[coldWidth], region, vnn.Options{})
		}
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, mustJSON(vnnserver.InferRequest{
			Network: fx.netJSON[coldWidth], Region: spec, Inputs: inputs[i],
			Monitor: &vnnserver.InferMonitorSpec{Data: build, Gamma: 1},
		}))
	}
	inferCheck(w, fx.oracles[coldWidth], inputs, inBuild, fps, nil)
	return w, nil
}
