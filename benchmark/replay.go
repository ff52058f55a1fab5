package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/bounds"
	"repro/internal/linalg"
	"repro/internal/verify"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// replayRequests caps source B in count; its caller caps it in time, since
// on table2_cold one replayed request is two full searches.
const replayRequests = 16

// replayer is source B: it runs the first requests of a workload again in
// this process, through each package's public functions, with a span
// around every call. The first error stops it; step is a no-op after that.
type replayer struct {
	ctx context.Context
	rec *recorder
	res *result
	fx  *fixture
	wl  *workload
	srv *vnnserver.Server
	err error

	// What a warm workload reuses is built once, outside the spans, as
	// vnnd's caches hold it; a cold workload builds per request, inside.
	compiled map[string]*vnn.CompiledNetwork
	monitor  *vnn.Monitor

	mallocs     uint64
	boundPasses int64
}

func (r *replayer) step(name string, parent, request int, fn func() error) {
	if r.err == nil {
		r.rec.do(name, parent, request, func() { r.err = fn() })
	}
}

// serve hands one request to an in-process vnnserver: the handler without
// TCP.
func (r *replayer) serve(body []byte) (reply []byte, err error) {
	w := httptest.NewRecorder()
	r.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.wl.route, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("replay %s: status %d: %.200s", r.wl.route, w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes(), nil
}

// frame is the request as vnnd sees it: handle, decode, encode. req and
// resp point at the route's request and response types.
func (r *replayer) frame(root, i int, body []byte, req, resp any) {
	var reply []byte
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	r.step("vnnserver.handler", root, i, func() (e error) { reply, e = r.serve(body); return })
	runtime.ReadMemStats(&ms)
	r.mallocs += ms.Mallocs - before
	r.step("vnnserver.decode", root, i, func() error { return json.Unmarshal(body, req) })
	if r.err == nil {
		r.err = json.Unmarshal(reply, resp)
	}
	r.step("vnnserver.encode", root, i, func() error { _, e := json.Marshal(resp); return e })
}

// parse turns the wire workload into engine values and fingerprints it.
func (r *replayer) parse(root, i int, netJSON []byte, spec *vnn.RegionSpec, opts vnn.Options) (n *vnn.Network, region *vnn.Region, fp string) {
	r.step("vnn.unmarshal_network", root, i, func() (e error) { n, e = vnn.UnmarshalNetwork(netJSON); return })
	if r.err == nil {
		region, r.err = spec.Region()
	}
	r.step("vnn.fingerprint", root, i, func() (e error) { fp, e = vnn.Fingerprint(n, region, opts); return })
	return n, region, fp
}

func (r *replayer) compileOnce(fp string, n *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
	if cn, ok := r.compiled[fp]; ok {
		return cn, nil
	}
	cn, err := vnn.Compile(r.ctx, n, region, opts)
	if err == nil {
		r.compiled[fp] = cn
	}
	return cn, err
}

func (r *replayer) verify(root, i int, body []byte) {
	var req vnnserver.VerifyRequest
	var resp vnnserver.VerifyResponse
	r.frame(root, i, body, &req, &resp)
	opts := vnn.Options{Tighten: req.Options.Tighten}
	n, region, _ := r.parse(root, i, req.Network, &req.Region, opts)
	if r.err != nil {
		return
	}
	// The compile layer by layer, as verify.Compile composes it...
	var nb *bounds.NetworkBounds
	var artifact *verify.Compiled
	passes := bounds.Passes()
	layers := r.rec.start("verify.compile", root, i)
	r.step("bounds.propagate", layers, i, func() (e error) { nb, e = bounds.Propagate(n, region.Box); return })
	if opts.Tighten {
		r.step("verify.tighten", layers, i, func() (e error) { nb, e = verify.TightenLPWorkers(n, region, nb, 0); return })
	}
	r.step("verify.encode", layers, i, func() (e error) { artifact, e = verify.CompileWithBounds(n, region, nb, opts.Tighten); return })
	r.rec.end(layers)
	r.boundPasses += bounds.Passes() - passes
	// ...and through the public API, as vnnd calls it.
	var cn *vnn.CompiledNetwork
	r.step("vnn.compile", root, i, func() (e error) { cn, e = vnn.Compile(r.ctx, n, region, opts); return })
	outs := req.Properties[0].Outputs
	r.step("vnn.verify", root, i, func() error { _, e := vnn.Verify(r.ctx, cn, vnn.MaxOverOutputs(outs...)); return e })
	if i > 0 {
		return
	}
	// Intra-query parallelism: the same search on one worker and on every core.
	var one, all *verify.MaxResult
	r.step("milp.solve workers=1", root, i, func() (e error) {
		one, e = artifact.MaxOverOutputs(r.ctx, outs, verify.Options{Workers: 1})
		return
	})
	r.step("milp.solve workers=nproc", root, i, func() (e error) {
		all, e = artifact.MaxOverOutputs(r.ctx, outs, verify.Options{Workers: runtime.NumCPU()})
		return
	})
	if r.err == nil {
		r.res.set("milp.parallel_speedup", ratio(r.rec.meanUS("milp.solve workers=1"), r.rec.meanUS("milp.solve workers=nproc")), "ratio", "solve time at 1 worker over nproc workers")
		r.res.set("milp.speculation_ratio", ratio(float64(one.Stats.Nodes), float64(all.Stats.Nodes)), "ratio", "nodes at 1 worker over nproc workers")
	}
}

func (r *replayer) analyze(root, i int, body []byte) {
	var req vnnserver.AnalyzeRequest
	var resp vnnserver.AnalyzeResponse
	r.frame(root, i, body, &req, &resp)
	opts := vnn.Options{Workers: req.Options.Workers}
	n, region, fp := r.parse(root, i, req.Network, &req.Region, opts)
	if r.err != nil {
		return
	}
	var cn *vnn.CompiledNetwork
	if cn, r.err = r.compileOnce(fp, n, region, opts); r.err != nil {
		return
	}
	analyses := make([]vnn.Analysis, len(req.Analyses))
	for k := range req.Analyses {
		if analyses[k], r.err = req.Analyses[k].Analysis(); r.err != nil {
			return
		}
		if qs, ok := analyses[k].(*vnn.QuantSweep); ok {
			// vnnd routes a sweep's recompiles through its cache too.
			qs.Compile = func(_ context.Context, fp string, n *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
				return r.compileOnce(fp, n, region, opts)
			}
		}
	}
	r.step("vnn.analyze", root, i, func() error { _, e := vnn.Analyze(r.ctx, cn, analyses...); return e })
}

func (r *replayer) infer(root, i int, body []byte) {
	var req vnnserver.InferRequest
	var resp vnnserver.InferResponse
	r.frame(root, i, body, &req, &resp)
	net := r.fx.nets[r.wl.width]
	mon := r.monitor
	build := func(spec *vnnserver.InferMonitorSpec, cn *vnn.CompiledNetwork) (m *vnn.Monitor, e error) {
		return vnn.BuildMonitor(cn, spec.Data, vnn.MonitorOptions{Gamma: spec.Gamma})
	}
	switch {
	case r.err != nil:
		return
	case req.Monitor != nil: // infer_churn: the whole workload travels, and is built, every time
		n, region, _ := r.parse(root, i, req.Network, &req.Region, vnn.Options{})
		var cn *vnn.CompiledNetwork
		r.step("vnn.compile", root, i, func() (e error) { cn, e = vnn.Compile(r.ctx, n, region, vnn.Options{}); return })
		r.step("monitor.build", root, i, func() (e error) { mon, e = build(req.Monitor, cn); return })
	case mon == nil: // infer_hot: built once, by the warm request
		var warm vnnserver.InferRequest
		var region *vnn.Region
		var cn *vnn.CompiledNetwork
		if r.err = json.Unmarshal(r.wl.warm[0], &warm); r.err == nil {
			region, r.err = warm.Region.Region()
		}
		if r.err == nil {
			cn, r.err = vnn.Compile(r.ctx, net, region, vnn.Options{})
		}
		if r.err == nil {
			r.monitor, r.err = build(warm.Monitor, cn)
		}
		mon = r.monitor
	}
	if r.err != nil {
		return
	}
	out := make([][]float64, len(req.Inputs))
	for k := range out {
		out[k] = make([]float64, net.OutputDim())
	}
	sc := net.NewScratch()
	r.step("nn.forward_batch", root, i, func() error { net.ForwardBatchInto(out, sc, req.Inputs); return nil })
	bsc := mon.NewBatchScratch()
	verdicts := make([]vnn.MonitorVerdict, len(req.Inputs))
	r.step("monitor.check_batch", root, i, func() error { mon.CheckBatchInto(out, bsc, req.Inputs, verdicts); return nil })
	first := linalg.DenseFromRows(net.Layers[0].W)
	y := make([]float64, first.Rows)
	r.step("linalg.matvec batch", root, i, func() error {
		for _, x := range req.Inputs {
			first.MatVec(y, x)
		}
		return nil
	})
}

// replay runs source B and reports its metrics. A metric of a layer the
// workload does not reach reads 0.
func replay(res *result, rec *recorder, fx *fixture, wl *workload, budget time.Duration) error {
	r := &replayer{ctx: context.Background(), rec: rec, res: res, fx: fx, wl: wl,
		srv: vnnserver.New(vnnserver.Config{}), compiled: map[string]*vnn.CompiledNetwork{}}
	defer r.srv.Drain(0)
	for _, body := range wl.warm {
		if _, err := r.serve(body); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(budget)
	done := 0
	for ; done < min(replayRequests, len(wl.bodies)) && r.err == nil && (done == 0 || time.Now().Before(deadline)); done++ {
		root := rec.start("replay "+wl.route, 0, done)
		switch wl.route {
		case "/v1/verify":
			r.verify(root, done, wl.bodies[done])
		case "/v1/analyze":
			r.analyze(root, done, wl.bodies[done])
		case "/v1/infer":
			r.infer(root, done, wl.bodies[done])
		}
		rec.end(root)
	}
	if r.err != nil {
		return fmt.Errorf("replay: %w", r.err)
	}

	us := rec.meanUS
	note := fmt.Sprintf("replay, n=%d", done)
	res.set("vnnserver.decode_us", us("vnnserver.decode"), "us", note)
	res.set("vnnserver.encode_us", us("vnnserver.encode"), "us", note)
	res.set("vnnserver.handler_us", us("vnnserver.handler"), "us", note+", no TCP")
	res.set("vnnserver.allocs_per_op", ratio(float64(r.mallocs), float64(done)), "count", note)
	res.set("vnn.unmarshal_network_us", us("vnn.unmarshal_network"), "us", note)
	res.set("vnn.fingerprint_us", us("vnn.fingerprint"), "us", note)
	res.set("vnn.compile_ms", us("vnn.compile")/1e3, "ms", note)
	res.set("vnn.verify_ms", us("vnn.verify")/1e3, "ms", note)
	res.set("vnn.analyze_ms", us("vnn.analyze")/1e3, "ms", note)
	res.set("bounds.propagate_us", us("bounds.propagate"), "us", note)
	res.set("bounds.passes", ratio(float64(r.boundPasses), float64(done)), "count", "per compile")
	res.set("verify.tighten_ms", us("verify.tighten")/1e3, "ms", note)
	res.set("verify.encode_us", us("verify.encode"), "us", note)
	res.set("monitor.build_replay_ms", us("monitor.build")/1e3, "ms", note)
	res.set("monitor.check_batch_us", us("monitor.check_batch"), "us", note)
	res.set("nn.forward_batch_us", us("nn.forward_batch"), "us", note)
	res.set("nn.forward_ns_per_input", us("nn.forward_batch")*1e3/inferBatch, "ns", note)
	res.set("linalg.matvec_ns", us("linalg.matvec batch")*1e3/inferBatch, "ns", "first layer, "+note)
	net := fx.nets[wl.width]
	flops, moved := 0, 8*net.InputDim()
	for _, l := range net.Layers {
		flops += 2 * l.InDim() * l.OutDim()
		moved += 8 * (l.InDim()*l.OutDim() + 2*l.OutDim())
	}
	res.set("nn.flops_per_input", float64(flops), "count", "computed from layer shapes")
	res.set("linalg.bytes_per_input", float64(moved), "count", "computed: weights, biases and activations, 8 bytes each")
	for _, name := range []string{"milp.parallel_speedup", "milp.speculation_ratio"} {
		if _, ok := res.Metrics[name]; !ok {
			res.set(name, 0, "ratio", "table2_cold only")
		}
	}
	return nil
}
