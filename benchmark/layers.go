package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"

	"repro/internal/lp"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// Per-layer numbers come from two places, both outside vnnd. Source A is
// what the daemon already publishes: its /metrics document, read once
// before and once after the window, and the effort fields its replies
// carry. Source B replays the workload's first requests in this process,
// through each package's public functions, with a span around every call.

// scrape reads vnnd's /metrics document.
func scrape(base string) (*vnnserver.Metrics, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var m vnnserver.Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

// histDelta is the count and the sum, in the histogram's own unit times
// its scale (seconds for the duration families), that a histogram gained
// between two scrapes. route selects within the request-duration family.
func histDelta(before, after *vnnserver.Metrics, name, route string) (count, sum float64) {
	find := func(m *vnnserver.Metrics) (float64, float64) {
		for _, h := range m.Histograms {
			if h.Name == name && h.Route == route {
				return float64(h.Count), float64(h.Sum) * h.Scale
			}
		}
		return 0, 0
	}
	c0, s0 := find(before)
	c1, s1 := find(after)
	return c1 - c0, s1 - s0
}

// sourceA fills in the metrics that vnnd's own counters and replies give.
func sourceA(res *result, wl *workload, win *window, before, after *vnnserver.Metrics) {
	ops := float64(len(win.latMS))
	perOp := func(v float64) float64 { return ratio(v, ops) }
	msMean := func(name, route string) float64 {
		c, s := histDelta(before, after, name, route)
		return ratio(s*1e3, c)
	}
	t := win.t.sums
	n := fmt.Sprintf("n=%d", len(win.latMS))

	reqMS := msMean("vnnd_request_duration_seconds", wl.route)
	res.set("vnnserver.request_ms_mean", reqMS, "ms", n)
	res.set("vnnserver.http_overhead_ms", mean(win.latMS)-reqMS, "ms", "client mean minus request_ms_mean")
	res.set("vnnserver.queue_wait_ms_mean", msMean("vnnd_queue_wait_seconds", ""), "ms", "")
	res.set("vnnserver.run_ms_mean", msMean("vnnd_run_seconds", ""), "ms", "")
	res.set("vnnserver.cache_hit_ratio", perOp(t["hits"]), "ratio", "share of replies that say they were served from cache")
	res.set("vnnserver.cache_evictions", perOp(float64(after.Cache.Evictions-before.Cache.Evictions)), "1/op", "")
	compiles, compileS := histDelta(before, after, "vnnd_compile_seconds", "")
	res.set("vnnserver.compile_count", perOp(compiles), "1/op", "")
	res.set("vnnserver.compile_ms_mean", ratio(compileS*1e3, compiles), "ms", "")
	res.set("vnnserver.rejected", float64(after.Scheduler.Rejected-before.Scheduler.Rejected), "count", "")
	res.set("vnnserver.gc_pause_p99_ms", after.Runtime.GCPauseP99MS, "ms", "")
	res.set("vnnserver.heap_inuse_mb", float64(after.Runtime.HeapInuseBytes)/(1<<20), "MB", "")
	res.set("verify.encode_passes", perOp(float64(after.EncodePasses-before.EncodePasses)), "1/op", "")
	res.set("verify.tighten_passes", perOp(float64(after.TightenPasses-before.TightenPasses)), "1/op", "")
	res.set("verify.binaries", ratio(t["binaries"], t["verdicts"]), "count", "per verdict")
	res.set("bounds.unstable_share", ratio(t["binaries"], t["hidden"]), "ratio", "binaries per hidden neuron")

	res.set("milp.solves", perOp(float64(after.Solves-before.Solves)), "1/op", "")
	res.set("milp.solve_ms", perOp(t["solve_ms"]), "ms", "per op, from replies")
	res.set("milp.nodes_per_s", ratio(t["nodes"], t["solve_ms"]/1e3), "1/s", "")
	res.set("lp.pivots_per_node", ratio(t["pivots"], t["nodes"]), "count", "")
	res.set("lp.ns_per_pivot", ratio(t["solve_ms"]*1e6, t["pivots"]), "ns", "solver wall time per pivot")

	res.set("coverage.generate_ms", perOp(t[vnn.KindCoverage+"_ms"]), "ms", "")
	res.set("trace.analyze_ms", perOp(t[vnn.KindTraceability+"_ms"]), "ms", "")
	res.set("quant.sweep_ms", perOp(t[vnn.KindQuantSweep+"_ms"]), "ms", "")
	res.set("attack.falsify_ms", perOp(t[vnn.KindFalsify+"_ms"]), "ms", "")

	res.set("monitor.build_ms", msMean("vnnd_monitor_build_seconds", ""), "ms", "")
	res.set("monitor.patterns", perOp(t["patterns"]), "count", "")
	res.set("monitor.flagged_share", ratio(t["flagged"], t["inputs"]), "ratio", "")
	chunks, chunkS := histDelta(before, after, "vnnd_infer_chunk_seconds", "")
	res.set("nn.infer_chunk_us_mean", ratio(chunkS*1e6, chunks), "us", "")
	res.set("nn.infer_shards", perOp(chunks), "1/op", "kernel chunks per request")
}

// checkLayers fails a run whose layers were not stressed the way the
// workload says: such a run measures something else.
func checkLayers(res *result, wl *workload) error {
	get := func(name string) float64 { return res.Metrics[name].Value }
	hit, compiles := get("vnnserver.cache_hit_ratio"), get("vnnserver.compile_count")
	switch {
	case wl.wantHit && (hit < 0.99 || compiles != 0):
		return fmt.Errorf("%s should be all cache hits: hit ratio %.3f, %.3f compiles per op", wl.name, hit, compiles)
	case !wl.wantHit && (hit != 0 || compiles != 1):
		return fmt.Errorf("%s should miss every cache: hit ratio %.3f, %.3f compiles per op", wl.name, hit, compiles)
	case wl.name == "dossier_shared" && get("verify.encode_passes")+get("verify.tighten_passes") != 0:
		return fmt.Errorf("dossier_shared re-encoded or re-tightened inside its window")
	case get("vnnserver.rejected") != 0:
		return fmt.Errorf("%s: vnnd rejected requests; a closed loop stays inside capacity", wl.name)
	}
	return nil
}

// lpStreams times internal/lp on its own, on a seeded dense LP with the
// row and column counts of the predictor's MILP encoding, under the two
// ways the verifier re-solves: branch-and-bound fixes one bound and keeps
// the objective; bound tightening swaps the objective and keeps the
// bounds. An engine that wins one stream and loses the other shows here
// before it reaches table2_cold, whose odd requests tighten.
func lpStreams(res *result, rec *recorder, net *vnn.Network, seed int64) error {
	hidden := net.HiddenNeurons()
	cols := net.InputDim() + 3*hidden + net.OutputDim() // inputs, pre/post/indicator per neuron, outputs
	rows := 4*hidden + net.OutputDim()                  // one affine and three big-M rows per neuron, outputs
	rng := rand.New(rand.NewSource(seed))
	m := lp.NewModel()
	m.SetMaximize(true)
	for j := 0; j < cols; j++ {
		m.AddVariable(0, 1, "")
		m.SetObjective(j, rng.Float64())
	}
	for i := 0; i < rows; i++ {
		terms := make([]lp.Term, cols)
		for j := range terms {
			terms[j] = lp.Term{Var: j, Coeff: 2*rng.Float64() - 1}
		}
		m.AddConstraint(terms, lp.LE, 1+rng.Float64()*float64(cols)/8, "")
	}
	const solves = 32
	var coldPivots, warmPivots float64
	solve := func(name string, s *lp.Solver) (pivots float64, err error) {
		rec.do(name, 0, 0, func() {
			sol, e := s.Solve(lp.Options{})
			if e != nil {
				err = e
				return
			}
			pivots = float64(sol.Iterations)
		})
		return pivots, err
	}
	for k := 0; k < solves; k++ {
		p, err := solve("lp.cold_solve", lp.NewSolver(m.Clone()))
		if err != nil {
			return err
		}
		coldPivots += p
	}
	s := lp.NewSolver(m)
	if _, err := s.Solve(lp.Options{}); err != nil {
		return err
	}
	for k := 0; k < solves; k++ {
		j := rng.Intn(cols)
		v := math.Round(rng.Float64())
		m.SetBounds(j, v, v)
		p, err := solve("lp.warm_bound_resolve", s)
		if err != nil {
			return err
		}
		warmPivots += p
		m.SetBounds(j, 0, 1)
	}
	for k := 0; k < solves; k++ {
		for j := 0; j < cols; j++ {
			m.SetObjective(j, rng.Float64())
		}
		if _, err := solve("lp.warm_objective_resolve", s); err != nil {
			return err
		}
	}
	note := fmt.Sprintf("%dx%d dense LP, n=%d", rows, cols, solves)
	res.set("lp.cold_solve_us", rec.meanUS("lp.cold_solve"), "us", note)
	res.set("lp.warm_bound_resolve_us", rec.meanUS("lp.warm_bound_resolve"), "us", note)
	res.set("lp.warm_objective_resolve_us", rec.meanUS("lp.warm_objective_resolve"), "us", note)
	res.set("lp.warm_pivot_ratio", ratio(warmPivots, coldPivots), "ratio", "pivots of a bound-fix re-solve over a cold solve")
	return nil
}
