// POST /v1/analyze: the dependability portfolio served over HTTP. One
// request compiles (or cache-hits) a network against a region and runs
// any mix of analyses — property verification, structural coverage,
// traceability, quantization sweeps, data validation, falsification —
// through vnn.Analyze on the shared compiled artifact. Quantization
// sweeps route their per-width recompiles through the same
// fingerprint-keyed compile cache as everything else, so N concurrent
// identical sweeps still perform exactly one compile per bit-width.

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
// bounds what one request can demand up front (the same hardening the
// falsify endpoint has always had).
const (
	// maxFalsifyRestarts and maxFalsifySteps bound PGD work per request,
	// for /v1/falsify and falsify-kind analyses alike.
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
// plus service metadata about the base compile.
type AnalyzeResponse struct {
	ID          string  `json:"id"`
	Fingerprint string  `json:"fingerprint"`
	CacheHit    bool    `json:"cache_hit"`
	CompileMS   float64 `json:"compile_ms"`
	vnn.Report
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
	analyses := make([]vnn.Analysis, len(req.Analyses))
	for i := range req.Analyses {
		if analyses[i], err = req.Analyses[i].Analysis(); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		if err := req.Analyses[i].ValidateFor(wl.net); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		if err := capAnalysisWork(&req.Analyses[i]); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		// Every quantized recompile a sweep performs goes through the
		// compile cache, like the base compile.
		if qs, ok := analyses[i].(*vnn.QuantSweep); ok {
			qs.Compile = s.cachedCompile
		}
	}
	return &jobPlan{
		route:       "/v1/analyze",
		status:      statusFor,
		fingerprint: wl.fingerprint,
		async:       req.Wait != nil && !*req.Wait,
		timeoutMS:   req.TimeoutMS,
		run: func(ctx context.Context, jb *job, root *obs.Span, fairWorkers int) (any, error) {
			root.SetAttr("analyses", len(analyses))
			// The solve span covers the whole portfolio; each analysis that
			// streams solver progress contributes per-property children
			// with their analysis index attributed.
			resp, err := s.solve(ctx, jb, root, wl, req.Options, fairWorkers,
				func(ctx context.Context, cn *vnn.CompiledNetwork) (vnn.Report, effort, error) {
					var eff effort
					findings, err := vnn.Analyze(ctx, cn, analyses...)
					if err != nil {
						return vnn.Report{}, eff, err
					}
					for _, f := range findings {
						eff.add(f.Verification)
						if f.QuantSweep != nil {
							eff.add(f.QuantSweep.Base)
							for _, pt := range f.QuantSweep.Points {
								eff.add(pt.Results)
							}
						}
					}
					return vnn.NewAnalysisReport(wl.net, findings), eff, nil
				})
			return (*AnalyzeResponse)(resp), err
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

// capAnalysisWork enforces the service's per-request work bounds on one
// analysis spec (see the max* constants).
func capAnalysisWork(spec *vnn.AnalysisSpec) error {
	switch spec.Kind {
	case vnn.KindFalsify:
		if spec.Restarts > maxFalsifyRestarts || spec.Steps > maxFalsifySteps {
			return fmt.Errorf("restarts must be in [0, %d] and steps in [0, %d]",
				maxFalsifyRestarts, maxFalsifySteps)
		}
	case vnn.KindCoverage:
		if spec.MaxTests > maxCoverageTests {
			return fmt.Errorf("max_tests must be at most %d", maxCoverageTests)
		}
	case vnn.KindQuantSweep:
		if len(spec.Bits) > maxSweepWidths {
			return fmt.Errorf("a sweep may request at most %d bit-widths", maxSweepWidths)
		}
	}
	return nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	s.serveJob(w, r, &req, func() (*jobPlan, error) { return s.prepareAnalyze(&req) })
}

// cachedCompile is the CompileFunc the server injects into quantization
// sweeps: share one compile per distinct quantized model through the
// LRU/singleflight cache, keyed on the fingerprint the sweep already
// computed for its finding.
func (s *Server) cachedCompile(ctx context.Context, fp string, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
	copts := vnn.Options{Tighten: opts.Tighten, Workers: opts.Workers}
	cn, _, err := s.cache.GetOrCompile(ctx, fp, func() (*vnn.CompiledNetwork, error) {
		return vnn.Compile(s.queryCtx, net, region, copts)
	})
	return cn, err
}
