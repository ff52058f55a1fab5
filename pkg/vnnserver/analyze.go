// POST /v1/analyze: the dependability portfolio served over HTTP. One
// request compiles (or cache-hits) a network against a region and runs
// any mix of analyses — property verification, structural coverage,
// traceability, quantization sweeps, data validation, falsification —
// through vnn.Analyze on the shared compiled artifact. The model gate
// (registry.go) is the same portfolio under another route: both build
// their analyses with buildAnalyses and run them with Server.analyze.

package vnnserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/pkg/vnn"
)

// Per-request work caps. Unlike property verification — whose budget is
// the request timeout and whose anytime contract makes interruption
// useful — these analyses do open-ended iteration work, so the service
// bounds what one request can demand up front.
const (
	// maxFalsifyRestarts and maxFalsifySteps bound one falsify analysis's
	// PGD work.
	maxFalsifyRestarts = 1024
	maxFalsifySteps    = 10000
	// maxCoverageTests bounds one coverage analysis's sampling budget.
	maxCoverageTests = 1 << 20
	// maxSweepWidths bounds one quant sweep's ladder length (the full
	// supported range is only [2, 16] wide).
	maxSweepWidths = 32
)

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	// Network is the canonical network JSON (see vnn.MarshalNetwork).
	Network json.RawMessage `json:"network"`
	// Region selects a named case-study region or gives an explicit box.
	Region vnn.RegionSpec `json:"region"`
	// Analyses is the portfolio batch to run on the shared compilation.
	Analyses []vnn.AnalysisSpec `json:"analyses"`
	Options  QueryOptions       `json:"options"`
	// TimeoutMS bounds the whole batch including any compiles it
	// triggers; 0 falls back to the server's default. An expired budget
	// yields anytime findings where the analysis supports them.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Wait false turns the call asynchronous: 202 plus a job id for
	// GET /v1/analyze/{id} and its /events stream.
	Wait *bool `json:"wait,omitempty"`
}

// AnalyzeResponse is the analyze answer: the shared wire Report (findings
// under "analyses", verification results also flattened into "results")
// plus service metadata about the base compile — the verify answer's
// shape exactly.
type AnalyzeResponse = VerifyResponse

// buildAnalyses turns the analysis specs of a request — an /v1/analyze
// batch or a model gate — into engine values: each is validated against
// the network and held to the per-request work caps (see the max*
// constants). Whatever it rejects is the client's fault.
func buildAnalyses(specs []vnn.AnalysisSpec, net *vnn.Network) ([]vnn.Analysis, error) {
	analyses := make([]vnn.Analysis, len(specs))
	for i := range specs {
		spec := &specs[i]
		err := spec.ValidateFor(net)
		switch {
		case err != nil:
		case spec.Kind == vnn.KindFalsify && (spec.Restarts > maxFalsifyRestarts || spec.Steps > maxFalsifySteps):
			err = fmt.Errorf("restarts must be in [0, %d] and steps in [0, %d]", maxFalsifyRestarts, maxFalsifySteps)
		case spec.Kind == vnn.KindCoverage && spec.MaxTests > maxCoverageTests:
			err = fmt.Errorf("max_tests must be at most %d", maxCoverageTests)
		case spec.Kind == vnn.KindQuantSweep && len(spec.Bits) > maxSweepWidths:
			err = fmt.Errorf("a sweep may request at most %d bit-widths", maxSweepWidths)
		default:
			analyses[i], err = spec.Analysis()
		}
		if err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
	}
	return analyses, nil
}

// analyze runs a portfolio on the compiled artifact under solve's span sp:
// the answer /v1/analyze and the model gate give solve. A quantization
// sweep's per-width recompiles come through the compile door like the
// base compile — one "cache" span each under sp, and N concurrent
// identical sweeps still perform exactly one compile per bit-width. The
// effort is summed over verification and sweep findings. No analyses (an
// ungated submission) is no findings.
func (s *Server) analyze(ctx context.Context, sp *obs.Span, cn *vnn.CompiledNetwork, analyses []vnn.Analysis) ([]*vnn.Finding, vnn.Effort, error) {
	var eff vnn.Effort
	if len(analyses) == 0 {
		return nil, eff, nil
	}
	for _, a := range analyses {
		if qs, ok := a.(*vnn.QuantSweep); ok {
			qs.Compile = func(ctx context.Context, fp string, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
				qcn, _, err := s.compiled(ctx, sp, &workload{net: net, region: region, compileOpts: vnn.Options{Tighten: opts.Tighten}, fingerprint: fp})
				return qcn, err
			}
		}
	}
	findings, err := vnn.Analyze(ctx, cn, analyses...)
	if err != nil {
		return nil, eff, err
	}
	fold := func(results []*vnn.Result) {
		for _, r := range results {
			eff.Add(r.Stats.Effort)
		}
	}
	for _, f := range findings {
		fold(f.Verification)
		if f.QuantSweep != nil {
			fold(f.QuantSweep.Base)
			for _, pt := range f.QuantSweep.Points {
				fold(pt.Results)
			}
		}
	}
	return findings, eff, nil
}

// prepareAnalyze parses the request into engine values, validates every
// analysis against the network, fingerprints the base compile workload and
// plans the job. Everything that can be the client's fault is rejected
// here.
func (s *Server) prepareAnalyze(req *AnalyzeRequest) (*jobPlan, error) {
	wl, err := parseWorkload(req.Network, req.Region, req.Options)
	if err != nil {
		return nil, err
	}
	if len(req.Analyses) == 0 {
		return nil, fmt.Errorf("request needs at least one analysis")
	}
	analyses, err := buildAnalyses(req.Analyses, wl.net)
	if err != nil {
		return nil, err
	}
	return &jobPlan{
		route:       "/v1/analyze",
		fingerprint: wl.fingerprint,
		async:       req.Wait != nil && !*req.Wait,
		timeoutMS:   req.TimeoutMS,
		run: func(ctx context.Context, jb *job, root *obs.Span, fairWorkers int) (any, error) {
			root.SetAttr("analyses", len(analyses))
			// The solve span covers the whole portfolio; each analysis that
			// streams solver progress contributes per-property children
			// with their analysis index attributed.
			return s.solve(ctx, jb, root, wl, req.Options, fairWorkers, nil,
				func(ctx context.Context, sp *obs.Span, cn *vnn.CompiledNetwork) (vnn.Report, vnn.Effort, error) {
					findings, eff, err := s.analyze(ctx, sp, cn, analyses)
					return vnn.NewAnalysisReport(wl.net, findings), eff, err
				})
		},
		count: func(_ any, err error) {
			s.analyzes.Add(1)
			if err == nil {
				// Per-kind accounting happens once per completed batch so
				// the counters mean "analyses served", not "analyses
				// attempted".
				for _, a := range analyses {
					s.countAnalysis(a.Kind())
				}
			}
		},
	}, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	s.serveJob(w, r, &req, func() (*jobPlan, error) { return s.prepareAnalyze(&req) })
}
