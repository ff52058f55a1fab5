// Package vnnserver is the verification service layer above pkg/vnn: a
// long-running HTTP server (see cmd/vnnd) through which a fleet of
// clients shares one warm verification engine.
//
// Three pieces turn the library API into a service:
//
//   - A fingerprint-keyed LRU compile cache with singleflight (lru, behind
//     Server.compiled): vnn.Compile — the expensive, reusable part of
//     every query — runs at most once per distinct (network, region,
//     compile options) workload, no matter how many clients ask
//     concurrently.
//
//   - An admission scheduler (Scheduler): a bounded FIFO queue with
//     immediate backpressure when full, a cap on concurrently running
//     queries, and fair-share division of GOMAXPROCS across whatever is
//     in flight.
//
//   - A job registry streaming vnn.Event progress over SSE while a query
//     runs, and retaining finished results for later retrieval.
//
// Every budget is a context: per-request deadlines, client disconnects
// and server drain all reach the simplex pivot loops the same way, and an
// interrupted query answers with its anytime Result (best witness plus
// tightest proven bound at interruption) instead of an error.
//
// Endpoints:
//
//	POST /v1/verify              batch of properties over one network+region
//	GET  /v1/verify/{id}         result of a (possibly async) query
//	GET  /v1/verify/{id}/events  SSE progress stream, terminated by the result
//	POST /v1/analyze             dependability portfolio batch (coverage,
//	                             traceability, quant sweeps, data validation,
//	                             verification, falsification) over one
//	                             compiled network — see AnalyzeRequest
//	GET  /v1/analyze/{id}        result of a (possibly async) analyze batch
//	GET  /v1/analyze/{id}/events SSE per-analysis progress stream
//	POST /v1/infer               online inference plane: batch of inputs →
//	                             predictions (bit-identical to nn.Forward)
//	                             + per-input runtime-monitor verdicts,
//	                             low-latency (no queue, no SSE) — see
//	                             InferRequest
//	POST /v1/models              submit a named model version for the
//	                             certification-gated rollout plane
//	                             (pkg/vnnregistry); the gate is an analyze
//	                             batch, async by default
//	GET  /v1/models              every model's rollout document
//	GET  /v1/models/{name}       one model's rollout document
//	GET  /v1/models/{name}/events  SSE gate progress for a version
//	POST /v1/models/{name}/promote rollout control: canary share or cutover
//	POST /v1/models/{name}/rollback one-RTT swap back to the previous live
//	GET  /v1/workloads           index of cached serving workloads
//	GET  /healthz                liveness (always 200 while the process
//	                             can answer; reports drain state)
//	GET  /readyz                 readiness: 503 while draining or before
//	                             registry recovery completes
//	GET  /metrics                JSON metrics snapshot (see Metrics),
//	                             including per-kind analysis counters
package vnnserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonscan"
	"repro/internal/obs"
	"repro/pkg/vnn"
	"repro/pkg/vnnfleet"
	"repro/pkg/vnnregistry"
)

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// CacheEntries caps the compile cache (<= 0 means 64).
	CacheEntries int
	// MaxConcurrent caps queries running at once (<= 0 means GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth caps queries waiting for a run slot (0 means 256,
	// negative means reject as soon as every run slot is busy).
	QueueDepth int
	// DefaultTimeout applies to requests that set no timeout_ms of their
	// own; 0 means no deadline.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies (<= 0 means 32 MiB); a larger body
	// answers 413.
	MaxBodyBytes int64
	// Peers is the static fleet membership: base URLs of sibling vnnd
	// nodes (e.g. "http://10.0.0.2:8419") whose compile and monitor
	// caches this server replicates by pulling what their fingerprint
	// lists name (pkg/vnnfleet). Empty means no reconcile loop; the fleet
	// endpoints are mounted regardless, so other nodes may still pull
	// from this one.
	Peers []string
	// FleetInterval is the reconcile loop period (<= 0 means 30s).
	FleetInterval time.Duration
	// TraceRing is how many recent traces the flight recorder keeps
	// (<= 0 means 256).
	TraceRing int
	// SlowRequest, when positive, logs every request at least this slow
	// through Log (cmd/vnnd's -slow-log flag); a nil Log disables the
	// lines even with SlowRequest set.
	SlowRequest time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (cmd/vnnd's
	// -pprof flag). Off by default: profiles expose enough about a
	// node's workload that they are opt-in.
	EnablePprof bool
	// DataDir is the model registry's persistence directory (cmd/vnnd's
	// -data-dir flag). It holds one file, the registry.json snapshot,
	// whose per-version transitions are the rollout record. Empty means
	// registry state lives for the process only.
	DataDir string
	// DefaultGate applies to model submissions that carry no gate of
	// their own (cmd/vnnd's -gate flag). Nil means ungated submissions
	// are admitted without analysis.
	DefaultGate *vnn.GateSpec
	// NodeID is this node's stable identity in fleet observability: it
	// keys the node's block in /v1/fleet/metrics and stamps every trace
	// segment the node records. Empty derives hostname-<4 hex> once at
	// boot (stable for the process lifetime; set it explicitly for
	// identities that survive restarts).
	NodeID string
	// TenantCap is the hard cardinality cap on per-tenant metric labels
	// (<= 0 means obs.DefaultTenantCap): the first TenantCap distinct
	// X-API-Key values get their own series, everything after accounts
	// under the "other" tenant.
	TenantCap int
	// Log receives operational diagnostics (registry recovery and
	// persistence problems, slow-request lines); nil discards them.
	Log func(format string, args ...any)
}

// Server is the verification service. Create with New, mount as an
// http.Handler, and call Drain before process exit so in-flight queries
// deliver their anytime results.
type Server struct {
	cfg    Config
	nodeID string
	cache  *lru[*vnn.CompiledNetwork]
	sched  *Scheduler
	jobs   *registry
	mux    *http.ServeMux
	start  time.Time

	// monitors holds built and imported monitors under their one name
	// (vnnm1-, vnn.Monitor.Fingerprint).
	monitors *lru[*vnn.Monitor]

	// inferScratch is the free list of /v1/infer kernel scratches (see
	// newInferScratch).
	inferScratch chan *vnn.MonitorBatchScratch
	// workloads remembers parsed (network, region, options) triples by
	// fingerprint, so by-fingerprint /v1/infer requests skip the network
	// upload and parse. Entries are cheap and stored as soon as a
	// full-network /v1/infer request parses — before its compile, whether
	// or not the request then succeeds. A workload that is only compiled
	// (verify, a gate, recovery, a fleet import) is served from the
	// compile cache instead.
	workloads *lru[*workload]

	// fleet is the replication peer (see fleet.go for the Store
	// implementation); its endpoints are always mounted, its reconcile
	// loop runs only when Config.Peers is non-empty.
	fleet *vnnfleet.Peer

	// registry is the verified-rollout plane (see registry.go for the
	// HTTP surface): versioned models behind certification gates, served
	// through /v1/infer?model=. Recovery runs asynchronously from New;
	// /readyz reports its completion.
	registry *vnnregistry.Registry

	// obs is the flight recorder and histogram set (see obs.go).
	obs *serverObs

	// queryCtx parents every query; cancelQueries is the drain switch.
	queryCtx      context.Context
	cancelQueries context.CancelFunc
	draining      atomic.Bool
	// drainMu serializes admission against Drain: a request is either
	// admitted (and then always waited for) or sees the draining flag —
	// never admitted after Drain stopped waiting. It also keeps wg.Add
	// strictly before Drain's wg.Wait.
	drainMu sync.Mutex
	wg      sync.WaitGroup // async (wait:false) queries in flight

	queries       atomic.Int64
	analyzes      atomic.Int64
	inferRequests atomic.Int64
	inferInputs   atomic.Int64
	inferFlagged  atomic.Int64
	// The effort totals: this node's own work, from its compiles' phases
	// and its answers' stats — never another Server's in the process.
	nodes, pivots, solves       atomic.Int64
	encodePasses, tightenPasses atomic.Int64

	// analysisMu guards analysisKinds, the per-kind count of analyses
	// served through /v1/analyze.
	analysisMu    sync.Mutex
	analysisKinds map[string]int64
}

// countAnalysis bumps the per-kind analysis counter.
func (s *Server) countAnalysis(kind string) {
	s.analysisMu.Lock()
	s.analysisKinds[kind]++
	s.analysisMu.Unlock()
}

// analysisCounts snapshots the per-kind analysis counters.
func (s *Server) analysisCounts() map[string]int64 {
	s.analysisMu.Lock()
	defer s.analysisMu.Unlock()
	out := make(map[string]int64, len(s.analysisKinds))
	for k, v := range s.analysisKinds {
		out[k] = v
	}
	return out
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	qctx, cancel := context.WithCancel(context.Background())
	nodeID := cfg.NodeID
	if nodeID == "" {
		nodeID = defaultNodeID()
	}
	s := &Server{
		cfg:           cfg,
		nodeID:        nodeID,
		cache:         newLRU[*vnn.CompiledNetwork](cfg.CacheEntries),
		monitors:      newLRU[*vnn.Monitor](cfg.CacheEntries),
		inferScratch:  newInferScratch(),
		workloads:     newLRU[*workload](cfg.CacheEntries),
		sched:         NewScheduler(cfg.MaxConcurrent, cfg.QueueDepth),
		jobs:          newRegistry(),
		start:         time.Now(),
		obs:           newServerObs(cfg, nodeID),
		queryCtx:      qctx,
		cancelQueries: cancel,
		analysisKinds: make(map[string]int64),
	}
	s.cache.sizeOf = (*vnn.CompiledNetwork).SizeBytes
	s.monitors.sizeOf = (*vnn.Monitor).SizeBytes
	// The scheduler reports its wait/run decomposition into the shared
	// histograms (set before any traffic can reach RunAdmitted).
	s.sched.queueWait = s.obs.hist[hQueueWait]
	s.sched.runTime = s.obs.hist[hRunTime]
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("GET /v1/verify/{id}", s.handleGetVerify)
	mux.HandleFunc("GET /v1/verify/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/analyze/{id}", s.handleGetVerify)
	mux.HandleFunc("GET /v1/analyze/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/models", s.handleModelSubmit)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/models/{name}", s.handleModel)
	mux.HandleFunc("GET /v1/models/{name}/events", s.handleModelEvents)
	mux.HandleFunc("POST /v1/models/{name}/promote", s.handleModelPromote)
	mux.HandleFunc("POST /v1/models/{name}/rollback", s.handleModelRollback)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/fleet/metrics", s.handleFleetMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	if cfg.EnablePprof {
		// Explicit per-handler mounts: importing net/http/pprof only
		// registers on http.DefaultServeMux, which this server never
		// serves, so without this flag /debug/pprof/ stays 404.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.registry = vnnregistry.New(vnnregistry.Config{
		Dir: cfg.DataDir,
		// Recovery recompiles through the compile door (no request, so no
		// trace); a recovered version serves by-fingerprint requests again.
		Compile: func(ctx context.Context, fp string, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
			cn, _, err := s.compiled(ctx, nil, &workload{net: net, region: region, compileOpts: vnn.Options{Tighten: opts.Tighten}, fingerprint: fp})
			return cn, err
		},
		ImportMonitor: func(m *vnn.Monitor) {
			// Recovered serving monitors also prime the monitor store, so
			// monitor_fingerprint requests work across restarts.
			s.monitors.add(m.Fingerprint(), m)
		},
		Logf: cfg.Log,
	})
	// Recovery runs off the boot path so the HTTP surface is up
	// immediately; /readyz answers 503 until it completes. The goroutine
	// joins the drain waitgroup, and its recompiles run under queryCtx, so
	// Drain interrupts an in-flight recovery rather than racing it.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.registry.Recover(s.queryCtx)
	}()
	s.fleet = vnnfleet.NewPeer(s, vnnfleet.Options{
		Interval: cfg.FleetInterval,
		Recorder: s.obs.rec,
		Latency:  s.obs.hist[hReconcile],
	})
	s.fleet.Mount(mux)
	if len(cfg.Peers) > 0 {
		// The loop lives under the query context: drain (or process exit)
		// cancels it, and the loop also exits on its own once the store
		// reports draining.
		go s.fleet.Run(qctx, cfg.Peers)
	}
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// defaultNodeID derives a boot-stable node identity: hostname plus a
// short random suffix, so co-hosted nodes (tests, CI fleets on one
// machine) never collide in the federation's nodes map.
func defaultNodeID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "vnnd"
	}
	return fmt.Sprintf("%s-%04x", host, rand.Uint32()&0xffff)
}

// startTrace opens the request's trace segment. A request carrying a
// valid W3C traceparent joins the caller's distributed trace — its
// trace id is adopted and the caller's span id recorded as the remote
// parent — while the local id (job id for verify/analyze) keeps the
// trace-id=job-id contract either way.
func (s *Server) startTrace(r *http.Request, route, id string) *obs.Trace {
	if tp, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return s.obs.rec.StartRemote(route, id, tp)
	}
	return s.obs.rec.Start(route, id)
}

// tenantFor resolves the request's tenant from its X-API-Key header
// (absent key → the anonymous tenant; past the cardinality cap → the
// overflow tenant). Allocation-free for known tenants, which keeps the
// /v1/infer hot path at 0 allocs/op with accounting on.
func (s *Server) tenantFor(r *http.Request) *obs.TenantStats {
	return s.obs.tenants.Tenant(r.Header.Get("X-API-Key"))
}

// Drain moves the server into drain mode: new queries are rejected with
// 503 while everything already admitted keeps running. Queries get grace
// to finish on their own; whatever is still running afterwards is
// interrupted through context cancellation, which makes each query
// deliver its anytime Result (best witness and tightest proven bound at
// the moment of interruption) through its normal response path — never a
// dropped connection or a bare error. Drain returns once every async
// query has finished; synchronous responses are written by their HTTP
// handlers, which the caller's http.Server.Shutdown awaits (see
// cmd/vnnd). Safe to call repeatedly.
func (s *Server) Drain(grace time.Duration) {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	if grace > 0 {
		deadline := time.Now().Add(grace)
		for time.Now().Before(deadline) {
			// Admitted covers the whole admission-token lifetime, so a
			// query between Admit and its first scheduler counter still
			// gets its grace.
			if s.sched.Stats().Admitted == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	s.cancelQueries()
	s.wg.Wait()
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueryOptions is the request-level slice of vnn.Options. Tighten is the
// one compile option: it is part of the workload's fingerprint. Workers
// and MaxNodes only shape the search; Workers left at 0 receives the
// scheduler's fair share, and an explicit value is honored as-is (a fixed
// worker count makes the search reproducible run to run).
type QueryOptions struct {
	Tighten  bool `json:"tighten,omitempty"`
	Workers  int  `json:"workers,omitempty"`
	MaxNodes int  `json:"max_nodes,omitempty"`
}

// VerifyRequest is the POST /v1/verify body.
type VerifyRequest struct {
	// Network is the canonical network JSON (see vnn.MarshalNetwork).
	Network json.RawMessage `json:"network"`
	// Region selects a named case-study region or gives an explicit box.
	Region vnn.RegionSpec `json:"region"`
	// Properties is the batch to answer on the shared compilation.
	Properties []vnn.PropertySpec `json:"properties"`
	Options    QueryOptions       `json:"options"`
	// TimeoutMS bounds the whole query including any compile it triggers;
	// 0 falls back to the server's default. An expired budget yields
	// anytime results, not an error.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Wait false turns the call asynchronous: the response is 202 with
	// the job id for /v1/verify/{id} and its /events stream.
	Wait *bool `json:"wait,omitempty"`
}

// VerifyResponse is the verify answer: the shared wire Report plus
// service metadata. CompileMS is the build cost of the compiled artifact
// the query used, whether or not this request paid it (CacheHit says).
type VerifyResponse struct {
	ID          string  `json:"id"`
	Fingerprint string  `json:"fingerprint"`
	CacheHit    bool    `json:"cache_hit"`
	CompileMS   float64 `json:"compile_ms"`
	vnn.Report
}

// AcceptedResponse acknowledges an async query.
type AcceptedResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Status      string `json:"status"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// prepare parses the verify request into engine values, validates every
// property against the network, and plans the job.
func (s *Server) prepare(req *VerifyRequest) (*jobPlan, error) {
	wl, err := parseWorkload(req.Network, req.Region, req.Options)
	if err != nil {
		return nil, err
	}
	v := &vnn.Verification{Properties: make([]vnn.Property, len(req.Properties))}
	for i := range req.Properties {
		if v.Properties[i], err = req.Properties[i].Property(); err != nil {
			return nil, fmt.Errorf("property %d: %w", i, err)
		}
	}
	if err := v.Validate(wl.net, wl.region); err != nil {
		return nil, err
	}
	return &jobPlan{
		route:       "/v1/verify",
		fingerprint: wl.fingerprint,
		async:       req.Wait != nil && !*req.Wait,
		timeoutMS:   req.TimeoutMS,
		run: func(ctx context.Context, jb *job, root *obs.Span, fairWorkers int) (any, error) {
			return s.solve(ctx, jb, root, wl, req.Options, fairWorkers, nil,
				func(ctx context.Context, _ *obs.Span, cn *vnn.CompiledNetwork) (vnn.Report, vnn.Effort, error) {
					var eff vnn.Effort
					results, err := vnn.Verify(ctx, cn, v.Properties...)
					if err != nil {
						return vnn.Report{}, eff, err
					}
					for _, r := range results {
						eff.Add(r.Stats.Effort)
					}
					return vnn.NewReport(wl.net, results), eff, nil
				})
		},
		count: func(any, error) { s.queries.Add(1) },
	}, nil
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	s.serveJob(w, r, &req, func() (*jobPlan, error) { return s.prepare(&req) })
}

func (s *Server) handleGetVerify(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown query id")
		return
	}
	if !jb.finished() {
		writeJSON(w, http.StatusAccepted, AcceptedResponse{
			ID: jb.id, Fingerprint: jb.fingerprint, Status: "running",
		})
		return
	}
	resp, err := jb.result()
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// progressEvent is the SSE wire form of one vnn.Event. Analysis is the
// index of the emitting analysis within an /v1/analyze batch (always 0
// for /v1/verify jobs).
type progressEvent struct {
	Analysis  int      `json:"analysis"`
	Property  int      `json:"property"`
	Nodes     int      `json:"nodes"`
	Open      int      `json:"open"`
	Incumbent *float64 `json:"incumbent,omitempty"`
	Bound     float64  `json:"bound"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

func toProgressEvent(ev vnn.Event) progressEvent {
	pe := progressEvent{
		Analysis:  ev.Analysis,
		Property:  ev.Property,
		Nodes:     ev.Nodes,
		Open:      ev.Open,
		Bound:     ev.Bound,
		ElapsedMS: float64(ev.Elapsed.Microseconds()) / 1e3,
	}
	if ev.HasIncumbent {
		inc := ev.Incumbent
		pe.Incumbent = &inc
	}
	return pe
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown query id")
		return
	}
	s.streamJob(w, r, jb)
}

// streamJob serves one job's SSE stream: replayed progress, live events,
// and the terminal result. Shared by the verify/analyze event routes and
// the model gate's /v1/models/{name}/events.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, jb *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, unsubscribe := jb.subscribe()
	defer unsubscribe()

	status := "running"
	if jb.finished() {
		status = "done"
	}
	writeSSE(w, "job", AcceptedResponse{ID: jb.id, Fingerprint: jb.fingerprint, Status: status})
	for _, ev := range replay {
		writeSSE(w, "progress", toProgressEvent(ev))
	}
	fl.Flush()

	finish := func() {
		resp, err := jb.result()
		if err != nil {
			writeSSE(w, "error", errorResponse{Error: err.Error()})
		} else {
			writeSSE(w, "result", resp)
		}
		fl.Flush()
	}
	for {
		select {
		case ev := <-live:
			writeSSE(w, "progress", toProgressEvent(ev))
			fl.Flush()
		case <-jb.done:
			// Flush any events that raced with completion, then close
			// with the terminal result.
			for {
				select {
				case ev := <-live:
					writeSSE(w, "progress", toProgressEvent(ev))
				default:
					finish()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"uptime_ms": msSince(s.start),
		"build":     Build(),
	})
}

// handleMetrics serves the metrics snapshot: JSON by default (the
// format every existing consumer parses), Prometheus text exposition
// when the scraper negotiates it (Accept: text/plain or
// ?format=prometheus — see prom.go).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		s.writeProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// statusFor maps a run-stage or registry error to its HTTP status:
// saturation to 429, an expired budget that never got to run to 504,
// drain/disconnect and a registry that is not ready to 503, an unknown
// model or version to 404, a model with nothing to serve or an illegal
// lifecycle change to 409, a region no input satisfies to 400, and
// anything else to 500. By this point the request has passed validation
// (prepare rejects malformed inputs with 400 directly); an empty region
// is the one client fault it cannot see, because finding one takes the
// search's LP. Any other failure is the server's inability to answer.
func statusFor(err error) int {
	switch {
	case errors.Is(err, vnn.ErrEmptyRegion), errors.Is(err, vnn.ErrNoStartingPoint):
		return http.StatusBadRequest
	case errors.Is(err, vnnregistry.ErrNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, vnnregistry.ErrUnknownModel), errors.Is(err, vnnregistry.ErrUnknownVersion):
		return http.StatusNotFound
	case errors.Is(err, vnnregistry.ErrNoServing), errors.Is(err, vnnregistry.ErrBadTransition):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// bodyPrealloc caps how much of a client's Content-Length readBody
// allocates before the bytes arrive.
const bodyPrealloc = 64 << 10

// readBody reads a request body of at most maxBytes into one buffer; a
// larger body fails with an error wrapping *http.MaxBytesError (see
// decodeStatus). The buffer starts at the declared length, up to
// bodyPrealloc, and doubles when full, but not past the declared length:
// bytes that have arrived vouch for at most as many again.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	rd, declared := http.MaxBytesReader(w, r.Body, maxBytes), r.ContentLength
	buf := make([]byte, 0, min(max(declared+1, 512), bodyPrealloc))
	for {
		if len(buf) == cap(buf) {
			more := len(buf)
			if declared >= int64(len(buf)) {
				more = int(min(declared+1-int64(len(buf)), int64(more)))
			}
			buf = append(make([]byte, 0, len(buf)+more), buf...)
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("decode request: %w", err)
		}
	}
}

// decodeBody is the strict decoder: one JSON value, no field the target
// does not declare, and nothing but whitespace after the value.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if i := jsonscan.SkipSpace(body, int(dec.InputOffset())); i < len(body) {
		return fmt.Errorf("decode request: invalid character %q after top-level value", body[i])
	}
	return nil
}

// decodeStatus is the status of a request that failed to decode: 413 for
// a body over Config.MaxBodyBytes, 400 for anything else.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeSSE emits one server-sent event with a JSON payload.
func writeSSE(w io.Writer, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}
