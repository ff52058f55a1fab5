// The verified-rollout HTTP surface: /v1/models and friends, backed by
// pkg/vnnregistry. Submitting a version runs its certification gate
// asynchronously through the same admission scheduler, job registry and
// solve path as /v1/analyze — the gate IS a portfolio batch, so it
// queues, streams SSE progress, counts its effort and traces exactly like
// one (trace id = job id, "gate" root, per-property children under
// "solve"); the registry only records the outcome. Serving integration
// lives in infer.go (?model= resolution); readiness in handleReadyz below.

package vnnserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"

	"repro/internal/obs"
	"repro/pkg/vnn"
	"repro/pkg/vnnregistry"
)

// modelNameRE bounds model names to a DNS-ish charset: they appear in
// URLs, metric labels and file-backed snapshots.
var modelNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ModelSubmitRequest is the POST /v1/models body: a named model version
// plus the gate it must pass.
type ModelSubmitRequest struct {
	// Model names the rollout target; versions are numbered per model in
	// submission order.
	Model string `json:"model"`
	// Network is the canonical network JSON (see vnn.MarshalNetwork).
	Network json.RawMessage `json:"network"`
	// Region is the operational design domain the version is certified
	// over.
	Region vnn.RegionSpec `json:"region"`
	// Options affect the serving compile (and are part of the
	// fingerprint), exactly as for /v1/verify.
	Options QueryOptions `json:"options"`
	// Monitor, when present, builds the version's serving monitor; every
	// /v1/infer?model= request through this version then gets per-input
	// verdicts, counted per version in /metrics.
	Monitor *InferMonitorSpec `json:"monitor,omitempty"`
	// Gate overrides the server's default gate (-gate). With neither,
	// the version is admitted without analysis — recorded as ungated.
	Gate *vnn.GateSpec `json:"gate,omitempty"`
	// TimeoutMS bounds the gate run; 0 falls back to the gate's own
	// timeout_ms, then the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Wait true runs the gate synchronously. The default is async — a
	// 202 with the gate job id for /v1/models/{name}/events — because
	// gates run real verification workloads.
	Wait *bool `json:"wait,omitempty"`
}

// ModelSubmitResponse answers submit (terminal state), promote, rollback
// and the SSE result event: the version document plus, for completed gate
// runs, the portfolio report behind the decision.
type ModelSubmitResponse struct {
	// ID is the gate job id: poll GET /v1/models/{name}?version=N or
	// stream /v1/models/{name}/events, and fetch /debug/traces/{id}.
	ID string `json:"id"`
	vnn.ModelVersionJSON
	// Report carries the gate's findings (shared wire schema).
	Report *vnn.Report `json:"report,omitempty"`
}

// ModelPromoteRequest is the POST /v1/models/{name}/promote body.
// canary_percent in [1, 99] starts (or resizes) a canary; omitted, 0 or
// 100 cuts the version fully over. version 0 targets the newest
// admitted-or-canary version.
type ModelPromoteRequest struct {
	Version       int  `json:"version,omitempty"`
	CanaryPercent *int `json:"canary_percent,omitempty"`
}

// ModelsResponse is the GET /v1/models listing.
type ModelsResponse struct {
	Models []vnnregistry.ModelDoc `json:"models"`
}

// Registry exposes the rollout registry (tests, embedding hosts).
func (s *Server) Registry() *vnnregistry.Registry { return s.registry }

// registryStatus maps registry errors onto HTTP statuses: not-ready to
// 503 (readiness, not failure), unknown names to 404, lifecycle misuse
// to 409 — then the shared statusFor rules.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, vnnregistry.ErrNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, vnnregistry.ErrUnknownModel), errors.Is(err, vnnregistry.ErrUnknownVersion):
		return http.StatusNotFound
	case errors.Is(err, vnnregistry.ErrNoServing), errors.Is(err, vnnregistry.ErrBadTransition):
		return http.StatusConflict
	default:
		return statusFor(err)
	}
}

// prepareModelSubmit validates everything that can be the client's
// fault — name, network, region, gate (its analyses built exactly as
// /v1/analyze builds its own) and monitor spec — and plans the gate run.
// The gate is an analyze batch: queue span, fair worker share, SSE
// progress through the job, drain interruption, all from solve. The
// lifecycle decision itself (admitted/rejected, persistence) belongs to
// the registry: the run body hands it the outcome.
func (s *Server) prepareModelSubmit(req *ModelSubmitRequest) (*jobPlan, error) {
	if !modelNameRE.MatchString(req.Model) {
		return nil, fmt.Errorf("model name must match %s", modelNameRE)
	}
	wl, err := parseWorkload(req.Network, req.Region, req.Options)
	if err != nil {
		return nil, err
	}
	gate := req.Gate
	if gate == nil {
		gate = s.cfg.DefaultGate
	}
	timeoutMS := req.TimeoutMS
	var analyses []vnn.Analysis // none: an ungated submission
	if gate != nil {
		if err := gate.Validate(); err != nil {
			return nil, err
		}
		if analyses, err = buildAnalyses(gate.Analyses, wl.net); err != nil {
			return nil, fmt.Errorf("gate %w", err)
		}
		if timeoutMS <= 0 {
			timeoutMS = gate.TimeoutMS
		}
	}
	sub := vnnregistry.Submission{
		Model:       req.Model,
		NetworkJSON: req.Network,
		Net:         wl.net,
		Region:      wl.region,
		RegionSpec:  req.Region,
		Fingerprint: wl.fingerprint,
		Tighten:     req.Options.Tighten,
		Workers:     req.Options.Workers,
		Gate:        gate,
	}
	if m := req.Monitor; m != nil {
		if sub.MonitorOpts, err = validateMonitorSpec(m, wl.net); err != nil {
			return nil, err
		}
		sub.MonitorFingerprint = vnn.MonitorWorkloadFingerprint(wl.fingerprint, m.Data, sub.MonitorOpts)
	}
	var v *vnnregistry.Version // set by submit
	return &jobPlan{
		route:       "gate",
		status:      registryStatus,
		fingerprint: wl.fingerprint,
		// The gate defaults to asynchronous — it runs real verification
		// workloads — but follows the same admit-at-submit discipline as
		// /v1/verify: backpressure is immediate either way.
		async:     req.Wait == nil || !*req.Wait,
		timeoutMS: timeoutMS,
		// Submission is a registry mutation: it needs a recovered registry
		// even before admission.
		notReady: s.registry.ReadyReason(),
		submit: func(jb *job) (err error) {
			if v, err = s.registry.Submit(sub); err == nil {
				s.registry.SetGateJob(v, jb.id)
			}
			return err
		},
		accepted: func(jb *job) any {
			return ModelSubmitResponse{ID: jb.id, ModelVersionJSON: s.registry.Doc(v)}
		},
		run: func(ctx context.Context, jb *job, root *obs.Span, fairWorkers int) (any, error) {
			root.SetAttr("model", v.Model())
			root.SetAttr("version", v.Seq())
			var (
				cn       *vnn.CompiledNetwork
				mon      *vnn.Monitor
				findings []*vnn.Finding
			)
			solved, err := s.solve(ctx, jb, root, wl, req.Options, fairWorkers,
				func(ctx context.Context, compiled *vnn.CompiledNetwork) (err error) {
					cn = compiled
					if m := req.Monitor; m != nil {
						mon, _, err = s.buildMonitor(ctx, root, sub.MonitorFingerprint, cn, m.Data, sub.MonitorOpts)
					}
					return err
				},
				func(ctx context.Context, sp *obs.Span, cn *vnn.CompiledNetwork) (_ vnn.Report, eff effort, err error) {
					findings, eff, err = s.analyze(ctx, sp, cn, analyses)
					return vnn.NewAnalysisReport(nil, findings), eff, err
				})
			resp := &ModelSubmitResponse{ID: jb.id}
			if err == nil {
				resp.ModelVersionJSON, err = s.registry.Decide(v, cn, mon, findings)
			}
			if err != nil {
				// A version whose certification did not complete is rejected
				// with the cause recorded, never left pending.
				s.registry.FailGate(v, err)
				return nil, err
			}
			if len(findings) > 0 {
				resp.Report = &solved.Report
			}
			return resp, nil
		},
	}, nil
}

func (s *Server) handleModelSubmit(w http.ResponseWriter, r *http.Request) {
	var req ModelSubmitRequest
	s.serveJob(w, r, &req, func() (*jobPlan, error) { return s.prepareModelSubmit(&req) })
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ModelsResponse{Models: s.registry.Models()})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	doc, err := s.registry.Model(r.PathValue("name"))
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleModelEvents streams a version's gate run over SSE — the same
// job stream as /v1/verify/{id}/events, addressed by model name (and
// optional ?version=N, defaulting to the newest version).
func (s *Server) handleModelEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	seq := 0
	if qv := r.URL.Query().Get("version"); qv != "" {
		n, err := strconv.Atoi(qv)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "version must be a positive integer")
			return
		}
		seq = n
	}
	if seq == 0 {
		doc, err := s.registry.Model(name)
		if err != nil {
			writeError(w, registryStatus(err), err.Error())
			return
		}
		seq = len(doc.Versions)
	}
	jobID, err := s.registry.GateJob(name, seq)
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	jb := s.jobs.get(jobID)
	if jb == nil {
		writeError(w, http.StatusNotFound, "gate job expired from the registry")
		return
	}
	s.streamJob(w, r, jb)
}

func (s *Server) handleModelPromote(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req ModelPromoteRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil && !errors.Is(err, io.EOF) {
		// An empty body is a plain full promotion.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	pct := 100
	if req.CanaryPercent != nil {
		pct = *req.CanaryPercent
	}
	doc, err := s.registry.Promote(r.PathValue("name"), req.Version, pct)
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ModelSubmitResponse{ModelVersionJSON: doc})
}

func (s *Server) handleModelRollback(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	doc, err := s.registry.Rollback(r.PathValue("name"))
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ModelSubmitResponse{ModelVersionJSON: doc})
}

// handleReadyz is the readiness half of the health split: 503 while the
// server drains or before registry recovery completes, 200 once the node
// should receive traffic. Liveness stays on /healthz, which answers 200
// throughout — a draining or recovering process is alive, just not ready.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	if reason := s.registry.ReadyReason(); reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}
