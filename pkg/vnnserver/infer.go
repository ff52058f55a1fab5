// POST /v1/infer: the online inference plane. Where /v1/verify asks
// questions about a network, /v1/infer *runs* it under supervision: a
// batch of inputs comes back as predictions plus, when requested, a
// per-input runtime-monitor verdict flagging out-of-pattern inputs before
// their predictions are trusted (the paper's operation-time pillar).
//
// The endpoint is built for latency, not search:
//
//   - No scheduler queue and no SSE jobs — a forward pass is microseconds,
//     so requests run inline on their handler goroutine; only Drain and
//     the request context interrupt them.
//   - A batch runs on its handler goroutine through the batched kernels
//     (nn.ForwardBatchInto / vnn.Monitor.CheckBatchInto) with a scratch
//     borrowed from a fixed free list of GOMAXPROCS entries, so a warm
//     server allocates no kernel buffers. Every output is produced in the
//     kernels' fixed accumulation order (see DESIGN.md "Kernel layer"):
//     predictions are the bits a one-row batch would yield.
//   - Clients that re-serve a warm workload skip the network upload
//     entirely: every response echoes the workload fingerprint (and the
//     monitor's name), and a follow-up request may carry just
//     "fingerprint" — plus "monitor_fingerprint" for monitored inference
//     — to run against the cached artifacts. That removes the dominant
//     per-request cost (re-parsing the network JSON) from the hot path.
//   - The monitor's bounds cross-check needs the compiled network, which
//     routes through the fingerprint-keyed compile cache (singleflight),
//     so N concurrent identical monitored-infer requests share one
//     compile. A request that carries a monitor spec builds its monitor
//     (a build costs about what hashing its dataset would) and stores it
//     under its one name, which covers the workload it serves.

package vnnserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/pkg/vnn"
	"repro/pkg/vnnregistry"
)

const (
	// maxInferBatch bounds the inputs one request may carry.
	maxInferBatch = 4096
	// maxMonitorData bounds the monitor-build dataset one request may
	// carry.
	maxMonitorData = 1 << 16
	// inferCancelStride is how many inputs are evaluated between
	// context checks (one batched-kernel call): batches notice drain
	// promptly without paying a per-input atomic load.
	inferCancelStride = 256
)

// errUnknownFingerprint marks a by-fingerprint request whose artifact is
// not cached; the handler answers 404 so the client re-sends the full
// workload once.
var errUnknownFingerprint = errors.New("fingerprint not cached")

// InferMonitorSpec asks for runtime monitoring of an infer batch: a
// monitor is built from Data over the request's compiled network, checks
// every input and is stored for later monitor_fingerprint requests.
type InferMonitorSpec struct {
	// Data is the build dataset (e.g. the training set).
	Data FloatMatrix `json:"data"`
	// Gamma is the Hamming relaxation; 0 means exact-match monitoring.
	Gamma int `json:"gamma,omitempty"`
	// Layers selects monitored hidden ReLU layers; nil means all.
	Layers []int `json:"layers,omitempty"`
}

// InferRequest is the POST /v1/infer body.
type InferRequest struct {
	// Model serves through the verified-rollout registry instead of a
	// client-supplied workload: the request routes deterministically to
	// the model's live or canary version (see vnnregistry.Resolve) and
	// runs under that version's certified artifact and monitor. Also
	// settable as the ?model= query parameter (they must agree when both
	// are present). Mutually exclusive with Network, Fingerprint,
	// Monitor and MonitorFingerprint — the registry owns artifact
	// selection for routed requests.
	Model string `json:"model,omitempty"`
	// Network is the canonical network JSON (see vnn.MarshalNetwork).
	// It may be omitted when Fingerprint names a workload this server
	// has already seen — the cached network, region and options are
	// reused, skipping the per-request network parse.
	Network json.RawMessage `json:"network,omitempty"`
	// Fingerprint names a previously served (network, region, options)
	// workload — the value echoed in an earlier InferResponse. With a
	// Network present it is cross-checked; alone it resolves the cached
	// workload (404 if evicted).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Region is the operational design domain the network was certified
	// over; the monitor's static cross-check runs against its compiled
	// bounds. Ignored when Fingerprint resolves a cached workload.
	Region vnn.RegionSpec `json:"region,omitempty"`
	// Inputs is the batch to evaluate.
	Inputs FloatMatrix `json:"inputs"`
	// Monitor, when present, requests per-input runtime verdicts.
	Monitor *InferMonitorSpec `json:"monitor,omitempty"`
	// MonitorFingerprint requests monitored inference through a monitor
	// this server holds, by its name: the monitor_fingerprint echoed in
	// an earlier response, or a model version's. Mutually exclusive with
	// Monitor; requires the workload (Network or Fingerprint) the monitor
	// was built against — the name covers that workload.
	MonitorFingerprint string `json:"monitor_fingerprint,omitempty"`
	// Options affect only the compile the monitor cross-checks against
	// (Tighten tightens the bounds patterns are validated by); they are
	// part of the fingerprint exactly as for /v1/verify.
	Options QueryOptions `json:"options"`
	// TimeoutMS bounds the whole request including any compile or
	// monitor build it triggers; 0 falls back to the server's default.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// network is Network decoded by the one-pass body decoder (nil when
	// it was not), so that prepareInfer does not decode it again.
	network *vnn.Network
}

// VerdictJSON is the wire form of one monitor verdict.
type VerdictJSON struct {
	OK bool `json:"ok"`
	// Layer and Distance locate the verdict: on rejection, the first
	// monitored layer whose Hamming distance exceeded gamma; on
	// acceptance, the layer with the largest admissible distance.
	Layer    int `json:"layer"`
	Distance int `json:"distance"`
}

// InferResponse is the infer answer: predictions in input order, plus
// monitor verdicts when monitoring was requested.
type InferResponse struct {
	// Fingerprint identifies the (network, region, options) workload;
	// CacheHit reports whether the monitored path reused a cached compile.
	Fingerprint string `json:"fingerprint"`
	CacheHit    bool   `json:"cache_hit"`
	// Model, ModelVersion and Route identify the registry version that
	// served a ?model= request; Route is "live" or "canary".
	Model        string `json:"model,omitempty"`
	ModelVersion int    `json:"model_version,omitempty"`
	Route        string `json:"route,omitempty"`
	// MonitorFingerprint is the name of the monitor that checked this
	// batch (vnn.Monitor.Fingerprint); send it back as the request's
	// monitor_fingerprint to reuse the monitor. MonitorCacheHit is true
	// exactly when no build ran: a lookup by monitor_fingerprint, or a
	// registry-served request.
	MonitorFingerprint string `json:"monitor_fingerprint,omitempty"`
	MonitorCacheHit    bool   `json:"monitor_cache_hit,omitempty"`
	// MonitorPatterns and MonitorRejected echo the monitor build: stored
	// patterns, and dataset patterns rejected as statically unreachable.
	MonitorPatterns int `json:"monitor_patterns,omitempty"`
	MonitorRejected int `json:"monitor_rejected,omitempty"`
	// Outputs[i] is the raw network output for Inputs[i], bit-identical
	// to nn.ForwardBatchInto on any batch holding it (the serving
	// kernels; within documented tolerance of nn.Forward — see DESIGN.md
	// "Kernel layer").
	Outputs FloatMatrix `json:"outputs"`
	// Verdicts[i] classifies Inputs[i]; nil without a monitor.
	Verdicts []VerdictJSON `json:"verdicts,omitempty"`
	// Flagged counts out-of-pattern inputs in this batch.
	Flagged int `json:"flagged"`
}

// preparedInfer is a parsed, validated infer request.
type preparedInfer struct {
	*workload
	monitorOpts vnn.MonitorOptions
	// monitorName is set for by-fingerprint monitored requests: the name
	// of a stored monitor to serve through.
	monitorName string
}

// validateInputs checks an infer batch against the serving network.
func validateInputs(inputs FloatMatrix, net *vnn.Network) error {
	if len(inputs) == 0 {
		return fmt.Errorf("request needs at least one input")
	}
	if len(inputs) > maxInferBatch {
		return fmt.Errorf("batch of %d inputs exceeds the %d cap", len(inputs), maxInferBatch)
	}
	dim := net.InputDim()
	for i, x := range inputs {
		if len(x) != dim {
			return fmt.Errorf("input %d has dimension %d, network input %d", i, len(x), dim)
		}
	}
	return nil
}

// prepareModelInfer validates and routes a registry-served infer request:
// the model name resolves through the atomically-published route table to
// a certified version whose compiled artifact and monitor are already
// warm. Registry sentinel errors pass through for status mapping
// (statusFor); everything else is the client's fault.
func (s *Server) prepareModelInfer(req *InferRequest, name string) (*preparedInfer, *vnnregistry.Resolved, error) {
	if len(req.Network) > 0 || req.Fingerprint != "" || req.Monitor != nil || req.MonitorFingerprint != "" {
		return nil, nil, fmt.Errorf("a model request routes through the registry: network, fingerprint and monitor fields must be empty")
	}
	sv, err := s.registry.Resolve(name, req.Inputs)
	if err != nil {
		return nil, nil, err
	}
	net := sv.CN.Net()
	if err := validateInputs(req.Inputs, net); err != nil {
		return nil, nil, err
	}
	return &preparedInfer{workload: &workload{net: net, region: sv.CN.Region(), fingerprint: sv.Version.Fingerprint()}}, sv, nil
}

// prepareInfer validates everything that can be the client's fault.
func (s *Server) prepareInfer(req *InferRequest) (*preparedInfer, error) {
	q := &preparedInfer{monitorName: req.MonitorFingerprint}
	switch {
	case len(req.Network) > 0:
		var wl *workload
		var err error
		if req.network != nil {
			wl, err = newWorkload(req.network, req.Region, req.Options)
		} else {
			wl, err = parseWorkload(req.Network, req.Region, req.Options)
		}
		if err != nil {
			return nil, err
		}
		if req.Fingerprint != "" && req.Fingerprint != wl.fingerprint {
			return nil, fmt.Errorf("request fingerprint %s does not match the network/region/options sent (%s)", req.Fingerprint, wl.fingerprint)
		}
		// Remember the workload so follow-up requests may send just the
		// fingerprint.
		s.workloads.add(wl.fingerprint, wl)
		q.workload = wl
	case req.Fingerprint != "":
		wl, ok := s.workloads.lookup(req.Fingerprint, true)
		if !ok {
			// Only compiled here (verify, a gate, recovery, a fleet pull):
			// the compiled artifact carries the whole workload.
			cn, cached := s.cache.lookup(req.Fingerprint, true)
			if !cached {
				return nil, fmt.Errorf("workload %s: %w (send the full network once to prime it)", req.Fingerprint, errUnknownFingerprint)
			}
			wl = &workload{net: cn.Net(), region: cn.Region(), compileOpts: cn.Options(), fingerprint: req.Fingerprint}
		}
		q.workload = wl
	default:
		return nil, fmt.Errorf("request needs a network or a fingerprint")
	}
	if err := validateInputs(req.Inputs, q.net); err != nil {
		return nil, err
	}
	if req.Monitor != nil && req.MonitorFingerprint != "" {
		return nil, fmt.Errorf("send a monitor spec or a monitor_fingerprint, not both")
	}
	if req.Monitor != nil {
		var err error
		if q.monitorOpts, err = validateMonitorSpec(req.Monitor, q.workload); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// newInferScratch returns the free list of batched-kernel scratches, one
// per core: at most that many batches run the kernels at once, and each
// scratch serves any network or monitor, grown to the largest batch it
// has seen. It holds buffers only, so it keeps no reference to a monitor
// the cache has evicted.
func newInferScratch() chan *vnn.MonitorBatchScratch {
	n := runtime.GOMAXPROCS(0)
	free := make(chan *vnn.MonitorBatchScratch, n)
	for range n {
		free <- new(vnn.MonitorBatchScratch)
	}
	return free
}

// runInfer evaluates the batch on the calling goroutine with a borrowed
// scratch, checking ctx every inferCancelStride inputs. Outputs (and
// verdicts, when mon is non-nil) land in the caller's slices. Returns
// ctx.Err() if the batch was interrupted.
func (s *Server) runInfer(ctx context.Context, net *vnn.Network, mon *vnn.Monitor, inputs, outputs [][]float64, verdicts []vnn.MonitorVerdict) error {
	var sc *vnn.MonitorBatchScratch
	select {
	case sc = <-s.inferScratch:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { s.inferScratch <- sc }()
	start := time.Now()
	for i := 0; i < len(inputs); i += inferCancelStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		j := min(i+inferCancelStride, len(inputs))
		if mon != nil {
			mon.CheckBatchInto(outputs[i:j], sc, inputs[i:j], verdicts[i:j])
		} else {
			net.ForwardBatchInto(outputs[i:j], &sc.Forward, inputs[i:j])
		}
	}
	observeSince(s.obs.hist[hInferChunk], start)
	return nil
}

// firstNonFinite returns the first row holding an Inf or NaN, or -1.
func firstNonFinite(rows [][]float64) int {
	for i, row := range rows {
		for _, v := range row {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return i
			}
		}
	}
	return -1
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req InferRequest
	if !s.accept(w, r, func(body []byte) error { return decodeInfer(body, &req) }) {
		return
	}
	modelName := req.Model
	if qp := r.URL.Query().Get("model"); qp != "" {
		if modelName != "" && modelName != qp {
			writeError(w, http.StatusBadRequest, "model differs between query parameter and body")
			return
		}
		modelName = qp
	}
	var q *preparedInfer
	var sv *vnnregistry.Resolved
	var err error
	if modelName != "" {
		q, sv, err = s.prepareModelInfer(&req, modelName)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, vnnregistry.ErrNotReady) || errors.Is(err, vnnregistry.ErrUnknownModel) || errors.Is(err, vnnregistry.ErrNoServing) {
				status = statusFor(err)
			}
			writeError(w, status, err.Error())
			return
		}
	} else if q, err = s.prepareInfer(&req); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errUnknownFingerprint) {
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error())
		return
	}

	ctx, release := s.budget(r.Context(), req.TimeoutMS)
	defer release()

	start := time.Now()
	tr := s.startTrace(r, "/v1/infer", "")
	tn := s.tenantFor(r)
	root := tr.Root()
	root.SetAttr("fingerprint", q.fingerprint)
	root.SetAttr("batch", len(req.Inputs))
	defer tr.Finish()
	defer observeSince(s.obs.latency["/v1/infer"], start)

	resp := &InferResponse{Fingerprint: q.fingerprint}

	var mon *vnn.Monitor
	switch {
	case req.Monitor != nil:
		// The monitor's static cross-check needs the compiled bounds: the
		// compile routes through the same fingerprint-keyed singleflight
		// cache as /v1/verify, under the server's lifetime context (shared
		// work only drain may interrupt). The built monitor is then stored
		// under its name, the key by-fingerprint requests send.
		cn, hit, err := s.compiled(ctx, root, q.workload)
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		resp.CacheHit = hit
		if mon, err = s.buildMonitor(root, cn, req.Monitor.Data, q.monitorOpts); err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
	case q.monitorName != "":
		var ok bool
		mon, ok = s.monitors.lookup(q.monitorName, true)
		if !ok {
			writeError(w, http.StatusNotFound,
				fmt.Sprintf("monitor %s: %s (send the full monitor spec once to rebuild it)", q.monitorName, errUnknownFingerprint))
			return
		}
		// A monitor describes one certified artifact; refuse to run it
		// against a different workload.
		if mon.NetworkFingerprint() != q.fingerprint {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("monitor %s belongs to workload %s, not %s", q.monitorName, mon.NetworkFingerprint(), q.fingerprint))
			return
		}
		resp.MonitorCacheHit = true
	}
	if sv != nil {
		// Registry-served: the resolved version's artifacts are warm by
		// construction (compiled at gate time or recovery), so routed
		// requests never compile on the hot path.
		mon = sv.Monitor
		resp.CacheHit, resp.MonitorCacheHit = true, mon != nil
		resp.Model = sv.Version.Model()
		resp.ModelVersion = sv.Version.Seq()
		resp.Route = sv.Route
		root.SetAttr("model", resp.Model)
		root.SetAttr("model_version", resp.ModelVersion)
		root.SetAttr("route", sv.Route)
	}
	if mon != nil {
		resp.MonitorFingerprint = mon.Fingerprint()
		resp.MonitorPatterns = mon.PatternCount()
		resp.MonitorRejected = mon.Stats().Rejected
	}

	net := q.net
	outputs := make([][]float64, len(req.Inputs))
	outDim := net.OutputDim()
	flat := make([]float64, len(req.Inputs)*outDim) // one backing array, one alloc
	for i := range outputs {
		outputs[i], flat = flat[:outDim:outDim], flat[outDim:]
	}
	var verdicts []vnn.MonitorVerdict
	if mon != nil {
		verdicts = make([]vnn.MonitorVerdict, len(req.Inputs))
	}

	runSpan := root.Child("run")
	err = s.runInfer(ctx, net, mon, req.Inputs, outputs, verdicts)
	runSpan.End()
	if err != nil {
		// Unlike verification there is no anytime value in half a batch:
		// predictions are cheap to re-request, so an interrupted batch is
		// an error (503 on drain/disconnect, 504 on budget).
		writeError(w, statusFor(err), err.Error())
		return
	}
	// JSON has no Inf or NaN: an overflowed prediction must be refused
	// before the status line goes out, or the client gets an empty 200.
	if i := firstNonFinite(outputs); i >= 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("input %d: network output is not finite", i))
		return
	}
	if mon != nil {
		resp.Verdicts = make([]VerdictJSON, len(verdicts))
		for i, v := range verdicts {
			resp.Verdicts[i] = VerdictJSON{OK: v.OK, Layer: v.Layer, Distance: v.Distance}
			if !v.OK {
				resp.Flagged++
			}
		}
	}

	if sv != nil {
		sv.Version.CountServe(len(req.Inputs), resp.Flagged)
	}
	// Effort counters before the request counter — the write half of the
	// Metrics snapshot ordering guarantee (see metrics.go). The tenant's
	// input/flagged counters obey the same order relative to its
	// per-route request counter (latency lands inside Count).
	s.inferInputs.Add(int64(len(req.Inputs)))
	s.inferFlagged.Add(int64(resp.Flagged))
	s.inferRequests.Add(1)
	s.obs.hist[hInferBatch].Observe(int64(len(req.Inputs)))
	tn.CountInputs(len(req.Inputs), resp.Flagged)
	tn.Route("/v1/infer").Count(time.Since(start))

	resp.Outputs = outputs
	writeJSON(w, http.StatusOK, resp)
}

// buildMonitor builds the monitor over cn, stores it under its name and
// returns the monitor it built, recording the "monitor" span under root
// and the build histogram. /v1/infer and the model gate share this path,
// so a version's serving monitor is also reusable by monitor_fingerprint
// requests and fleet replication. If the store already holds a monitor
// under the name, that entry stays: the two are identical.
func (s *Server) buildMonitor(root *obs.Span, cn *vnn.CompiledNetwork, data [][]float64, opts vnn.MonitorOptions) (*vnn.Monitor, error) {
	sp := root.Child("monitor")
	defer sp.End()
	buildStart := time.Now()
	mon, err := vnn.BuildMonitor(cn, data, opts)
	observeSince(s.obs.hist[hMonitorBuild], buildStart)
	if err != nil {
		return nil, err
	}
	s.monitors.add(mon.Fingerprint(), mon)
	return mon, nil
}
