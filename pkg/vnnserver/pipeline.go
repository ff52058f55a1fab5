// The one request pipeline: the scheduled-job skeleton /v1/verify,
// /v1/analyze and POST /v1/models run through (serveJob/runJob), their one
// run body (solve, the only place the server questions a compiled
// network), and the leaf steps every compute route shares — workload
// parsing, the budget context, the compile door (compiled, the only place
// it compiles one), monitor-spec validation, effort accounting. /v1/infer
// alone uses the leaves but keeps its own control flow: a forward pass is
// microseconds, so it creates no scheduler job and streams no SSE, and
// forcing it through the skeleton would make that branch on its caller.

package vnnserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/pkg/vnn"
)

// workload is a parsed (network, region, compile options) triple and the
// fingerprint that keys it in every cache. compileOpts holds only what
// the fingerprint hashes (Tighten), so the artifact is a function of it.
type workload struct {
	net         *vnn.Network
	region      *vnn.Region
	compileOpts vnn.Options
	fingerprint string
}

// parseWorkload turns the wire triple every compute request carries into
// engine values and fingerprints the compile workload.
func parseWorkload(network json.RawMessage, region vnn.RegionSpec, o QueryOptions) (*workload, error) {
	if len(network) == 0 {
		return nil, fmt.Errorf("request needs a network")
	}
	net, err := vnn.UnmarshalNetwork(network)
	if err != nil {
		return nil, err
	}
	return newWorkload(net, region, o)
}

// newWorkload is parseWorkload for a network already decoded.
func newWorkload(net *vnn.Network, region vnn.RegionSpec, o QueryOptions) (*workload, error) {
	reg, err := region.Region()
	if err != nil {
		return nil, err
	}
	wl := &workload{net: net, region: reg, compileOpts: vnn.Options{Tighten: o.Tighten}}
	if wl.fingerprint, err = vnn.Fingerprint(net, reg, wl.compileOpts); err != nil {
		return nil, err
	}
	return wl, nil
}

// validateMonitorSpec checks a monitor build request against the workload
// it will supervise and returns its build options.
func validateMonitorSpec(m *InferMonitorSpec, wl *workload) (vnn.MonitorOptions, error) {
	opts := vnn.MonitorOptions{Gamma: m.Gamma, Layers: m.Layers}
	if len(m.Data) == 0 {
		return opts, fmt.Errorf("monitor needs a build dataset")
	}
	if len(m.Data) > maxMonitorData {
		return opts, fmt.Errorf("monitor dataset of %d rows exceeds the %d cap", len(m.Data), maxMonitorData)
	}
	// Network-dependent monitor validation (dims, gamma, layers) is one
	// copy of the rules: the MonitorAudit analysis owns it.
	audit := vnn.MonitorAudit{Data: m.Data, Gamma: m.Gamma, Layers: m.Layers}
	return opts, audit.Validate(wl.net, wl.region)
}

// accept opens every request that reads a body: refuse with 503 while
// draining, before any side effect or read, then read the bounded body
// and decode it with decode (413 over the cap, 400 on any other
// failure). It reports whether the handler may proceed.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, decode func(body []byte) error) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err == nil {
		err = decode(body)
	}
	if err != nil {
		writeError(w, decodeStatus(err), err.Error())
		return false
	}
	return true
}

// budget derives a request's working context from parent: the request's
// own timeout_ms, else Config.DefaultTimeout, else no deadline — and
// server drain cancels it either way. The returned func releases it.
func (s *Server) budget(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := time.Duration(timeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	stop := context.AfterFunc(s.queryCtx, cancel) // drain interrupts the request
	return ctx, func() { stop(); cancel() }
}

// compiled is the server's one compile door: a request's base compile, a
// quantization sweep's per-width recompiles and a recovered model version
// all come through the fingerprint-keyed cache here, recording a "cache"
// span under root (nil records nothing) with a "compile" child on a miss.
// ctx bounds only this caller's wait; the compile itself runs under the
// server's lifetime context rather than the request's — it is shared work
// (other requests may be waiting on the same fingerprint), so one
// impatient client must not abort it, only server drain can.
//
// The compile span attributes the pass to LP tightening vs MILP encoding
// from the durations and pass counts this compile measured on itself
// (vnn.CompilePhases), so no other request's compile shows up in it; the
// same counts are what the server's encode/tighten totals add up. Every
// compile that runs, failed ones included, is one vnnd_compile_seconds
// observation; cache hits and waiters are none.
func (s *Server) compiled(ctx context.Context, root *obs.Span, wl *workload) (*vnn.CompiledNetwork, bool, error) {
	cacheSpan := root.Child("cache")
	cn, hit, err := s.cache.getOrCompute(ctx, wl.fingerprint, func() (*vnn.CompiledNetwork, error) {
		sp := cacheSpan.Child("compile")
		buildStart := time.Now()
		cn, err := vnn.Compile(s.queryCtx, wl.net, wl.region, wl.compileOpts)
		wall := time.Since(buildStart)
		var ph vnn.CompilePhases // stays zero when the compile failed
		if err == nil {
			ph = cn.CompilePhases()
			s.encodePasses.Add(int64(ph.EncodePasses))
			s.tightenPasses.Add(int64(ph.TightenPasses))
		}
		sp.ChildTimed("tighten", ph.Tighten)
		sp.ChildTimed("encode", ph.Encode)
		sp.SetAttr("tighten_passes", ph.TightenPasses)
		sp.SetAttr("encode_passes", ph.EncodePasses)
		sp.End()
		s.obs.hist[hCompile].Observe(int64(wall))
		return cn, err
	})
	cacheSpan.SetAttr("hit", hit)
	cacheSpan.End()
	return cn, hit, err
}

// annotate puts the effort on the solve span: the two totals /metrics
// also carries, and the shape of the search tree — with how many nodes it
// took to the first incumbent, and how many nodes and pivots went to
// jumps rather than dive children — and the LP engine's own account of
// how the node relaxations were solved, which only the trace shows.
func annotate(sp *obs.Span, e vnn.Effort) {
	sp.SetAttr("nodes", e.Nodes)
	sp.SetAttr("lp_pivots", e.LPPivots)
	sp.SetAttr("bb_max_depth", e.MaxDepth)
	sp.SetAttr("bb_open_high_water", e.OpenHighWater)
	sp.SetAttr("bb_first_incumbent_node", e.FirstIncumbentNode)
	sp.SetAttr("bb_jump_nodes", e.JumpNodes)
	sp.SetAttr("bb_jump_pivots", e.JumpPivots)
	for _, a := range []struct {
		key string
		n   int
	}{
		{"lp_warm_solves", e.LP.WarmSolves},
		{"lp_cold_solves", e.LP.ColdSolves},
		{"lp_cold_dead_end", e.LP.ColdDeadEnd},
		{"lp_cold_stall", e.LP.ColdStall},
		{"lp_cold_unbounded", e.LP.ColdUnbounded},
		{"lp_cold_feas_guard", e.LP.ColdFeasGuard},
		{"lp_dual_pivots", e.LP.DualPivots},
		{"lp_primal_pivots", e.LP.PrimalPivots},
		{"lp_bound_flips", e.LP.BoundFlips},
		{"lp_refactorizations", e.LP.Refactorizations},
		{"lp_cert_accepted", e.LP.CertAccepted},
		{"lp_cert_failed", e.LP.CertFailed},
	} {
		sp.SetAttr(a.key, a.n)
	}
}

// solve is the run body /v1/verify, /v1/analyze and the model gate share:
// compile the workload through the cache, then let answer question the
// compiled artifact under the trace's "solve" span while its progress
// streams to the job's subscribers and into per-property children of that
// span (see vnn.ProgressSpans). compiledReady, when non-nil, sees the
// artifact in between: the gate builds its serving monitor there, so its
// trace reads cache → monitor → solve. Effort counters land here, before
// the caller's request counter — the write half of the Metrics ordering
// guarantee. The query options are built after the compile, which never
// reads them: qo.Workers, or fairWorkers when that is 0, and MaxNodes.
func (s *Server) solve(ctx context.Context, jb *job, root *obs.Span, wl *workload, qo QueryOptions, fairWorkers int,
	compiledReady func(context.Context, *vnn.CompiledNetwork) error,
	answer func(context.Context, *obs.Span, *vnn.CompiledNetwork) (vnn.Report, vnn.Effort, error)) (*VerifyResponse, error) {
	cn, hit, err := s.compiled(ctx, root, wl)
	if err != nil {
		return nil, err
	}
	if compiledReady != nil {
		if err := compiledReady(ctx, cn); err != nil {
			return nil, err
		}
	}
	opts := wl.compileOpts
	opts.Workers, opts.MaxNodes = qo.Workers, qo.MaxNodes
	if opts.Workers == 0 {
		opts.Workers = fairWorkers
	}
	solveSpan := root.Child("solve")
	defer solveSpan.End()
	ps := vnn.NewProgressSpans(solveSpan)
	opts.Progress = func(ev vnn.Event) {
		jb.publish(ev)
		ps.Observe(ev)
	}
	report, eff, err := answer(ctx, solveSpan, cn.WithOptions(opts))
	ps.Close()
	if err != nil {
		return nil, err
	}
	annotate(solveSpan, eff)
	s.solves.Add(int64(eff.Solves))
	s.nodes.Add(int64(eff.Nodes))
	s.pivots.Add(int64(eff.LPPivots))
	return &VerifyResponse{
		ID:          jb.id,
		Fingerprint: wl.fingerprint,
		CacheHit:    hit,
		CompileMS:   float64(cn.CompileTime().Microseconds()) / 1e3,
		Report:      report,
	}, nil
}

// jobPlan is everything one scheduled-job route supplies to the shared
// skeleton (serveJob): its prepare step validates the decoded body —
// whatever it rejects is the client's fault, a 400 — and returns the plan.
type jobPlan struct {
	// route names the trace root and the request-latency series; if it is
	// one of tenantRoutes the request is also accounted under its
	// X-API-Key tenant (the gate has no per-tenant series).
	route string

	fingerprint string
	// async answers 202 at once and runs the job detached from the HTTP
	// request; the route decides what an absent "wait" means.
	async bool
	// timeoutMS is the request's own budget; 0 means the server default.
	timeoutMS int
	// submit, when set, runs right after admission with the job the
	// request will run as; its failure releases the admission token again,
	// fails the job and answers statusFor(err).
	submit func(jb *job) error
	// accepted renders the 202 body; nil means AcceptedResponse.
	accepted func(jb *job) any
	// run is the job body, executed under scheduler control with the
	// fair-share worker count. It bumps its own effort counters.
	run func(ctx context.Context, jb *job, root *obs.Span, fairWorkers int) (any, error)
	// count, when set, bumps the route's request counters, after run's
	// effort counters: a /metrics snapshot that reads request counters
	// first (see Metrics) never shows a counted request whose effort is
	// missing. The gate has no request counter.
	count func(resp any, err error)
}

// serveJob is the scheduled-job skeleton: drain check, bounded strict
// decode into req, the route's prepare, admission, job + trace creation,
// then the job itself — inline for synchronous requests, detached behind
// a 202 for asynchronous ones.
//
// Admission happens at submit time so overload surfaces as immediate
// backpressure for sync and async clients alike; runJob releases the
// token. It is taken under drainMu so a request is never admitted after
// Drain stopped waiting (and wg.Add always precedes Drain's wg.Wait).
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, req any, prepare func() (*jobPlan, error)) {
	if !s.accept(w, r, func(body []byte) error { return decodeBody(body, req) }) {
		return
	}
	p, err := prepare()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if err := s.sched.Admit(); err != nil {
		s.drainMu.Unlock()
		writeError(w, statusFor(err), err.Error())
		return
	}
	if p.async {
		s.wg.Add(1)
	}
	s.drainMu.Unlock()
	jb := s.jobs.create(p.fingerprint)
	if p.submit != nil {
		if err := p.submit(jb); err != nil {
			// Undo the admission: the run that would release it will
			// never start.
			s.sched.cancelAdmitted()
			if p.async {
				s.wg.Done()
			}
			jb.finish(nil, err)
			writeError(w, statusFor(err), err.Error())
			return
		}
	}
	// The trace shares the job id, so the id every response (and 202
	// acknowledgment) echoes also addresses /debug/traces/{id}; an
	// inbound traceparent additionally enrolls it in the caller's
	// distributed trace.
	tr := s.startTrace(r, p.route, jb.id)
	tr.Root().SetAttr("fingerprint", p.fingerprint)
	var tn *obs.TenantStats
	if slices.Contains(tenantRoutes, p.route) {
		tn = s.tenantFor(r)
	}

	if !p.async {
		resp, err := s.runJob(r.Context(), p, jb, tr, tn)
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// The acknowledgement is rendered before the job starts, so it reports
	// the job as submitted even when a fast run finishes first.
	var ack any = AcceptedResponse{ID: jb.id, Fingerprint: p.fingerprint, Status: "running"}
	if p.accepted != nil {
		ack = p.accepted(jb)
	}
	go func() {
		defer s.wg.Done()
		// Async jobs outlive their HTTP request; only the budget and
		// server drain bound them.
		s.runJob(s.queryCtx, p, jb, tr, tn)
	}()
	writeJSON(w, http.StatusAccepted, ack)
}

// runJob executes one admitted job under scheduler control and records
// the outcome on it.
//
// The trace's phase spans decompose the request: "queue" (admission
// wait), then what solve hangs off the root — "cache" (lookup, with a
// "compile" child on a miss), for a gate with a serving monitor "monitor",
// and "solve" (branch-and-bound, one child per property from the progress
// stream). The root's children never overlap, so their durations sum to
// at most the trace's wall time. The trace finishes when runJob returns —
// it covers the work, not the HTTP response write.
func (s *Server) runJob(parent context.Context, p *jobPlan, jb *job, tr *obs.Trace, tn *obs.TenantStats) (any, error) {
	start := time.Now()
	defer tr.Finish()
	defer observeSince(s.obs.latency[p.route], start)
	defer func() { tn.Route(p.route).Count(time.Since(start)) }()
	ctx, release := s.budget(parent, p.timeoutMS)
	defer release()

	root := tr.Root()
	queueSpan := root.Child("queue")
	var resp any
	err := s.sched.RunAdmitted(ctx, tn, func(ctx context.Context, fairWorkers int) (err error) {
		queueSpan.End()
		root.SetAttr("workers", fairWorkers)
		resp, err = p.run(ctx, jb, root, fairWorkers)
		return err
	})
	queueSpan.End() // no-op if the body ran; ends the wait if the budget expired in the queue
	if p.count != nil {
		p.count(resp, err)
	}
	jb.finish(resp, err)
	return resp, err
}
