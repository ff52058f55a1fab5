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
//   - Batches are sharded across a fixed set of per-core serving lanes
//     (Config.InferWorkers, default GOMAXPROCS). Each shard owns its
//     scratch outright — no sync.Pool contention — and runs the batched
//     kernels (nn.ForwardBatchInto / vnn.Monitor.CheckBatchInto), which
//     are allocation-free in steady state. Sharding cannot change bits:
//     every output is produced in the fixed kernel accumulation order
//     regardless of how the batch is split (see DESIGN.md "Kernel
//     layer"), so predictions are the bits a one-row batch would yield
//     and deterministic across worker counts.
//   - Clients that re-serve a warm workload skip the network upload
//     entirely: every response echoes the workload fingerprint (and the
//     monitor fingerprint), and a follow-up request may carry just
//     "fingerprint" — plus "monitor_fingerprint" for monitored inference
//     — to run against the cached artifacts. That removes the dominant
//     per-request cost (re-parsing the network JSON) from the hot path.
//   - Artifacts are cached and deduplicated exactly like compiles: the
//     monitor's bounds cross-check needs the compiled network, which
//     routes through the fingerprint-keyed compile cache (singleflight),
//     and built monitors live in their own fingerprint-keyed LRU, so N
//     concurrent identical monitored-infer requests build one monitor
//     over one compile.

package vnnserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/pkg/vnn"
	"repro/pkg/vnnregistry"
)

const (
	// maxInferBatch bounds the inputs one request may carry.
	maxInferBatch = 4096
	// maxMonitorData bounds the monitor-build dataset one request may
	// carry (builds are cached, so this is paid once per distinct
	// monitor workload).
	maxMonitorData = 1 << 16
	// inferCancelStride is how many inputs are evaluated between
	// context checks (one batched-kernel chunk): batches notice drain
	// promptly without paying a per-input atomic load.
	inferCancelStride = 256
	// minShardChunk is the smallest per-shard slice worth a goroutine
	// handoff: below it, the microseconds-per-input forward is cheaper
	// than the scheduling, so small batches run on one shard.
	minShardChunk = 64
)

// errUnknownFingerprint marks a by-fingerprint request whose artifact is
// not cached; the handler answers 404 so the client re-sends the full
// workload once.
var errUnknownFingerprint = errors.New("fingerprint not cached")

// InferMonitorSpec asks for runtime monitoring of an infer batch: a
// monitor is built (or fetched from the monitor cache) from Data over the
// request's compiled network and checks every input.
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
	// this server already built — the monitor_fingerprint echoed in an
	// earlier response. Mutually exclusive with Monitor; requires the
	// workload (Network or Fingerprint) the monitor was built against.
	MonitorFingerprint string `json:"monitor_fingerprint,omitempty"`
	// Options affect only the compile the monitor cross-checks against
	// (Tighten tightens the bounds patterns are validated by); they are
	// part of the fingerprint exactly as for /v1/verify.
	Options QueryOptions `json:"options"`
	// TimeoutMS bounds the whole request including any compile or
	// monitor build it triggers; 0 falls back to the server's default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
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
	// MonitorFingerprint is the content hash of the monitor that checked
	// this batch; MonitorCacheHit reports whether it was reused.
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
	monitorFP   string
	monitorOpts vnn.MonitorOptions
	// monitorContentFP is set for by-fingerprint monitored requests: the
	// content hash of an already-built monitor to serve through.
	monitorContentFP string
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
// (registryStatus); everything else is the client's fault.
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
	q := &preparedInfer{monitorContentFP: req.MonitorFingerprint}
	switch {
	case len(req.Network) > 0:
		wl, err := parseWorkload(req.Network, req.Region, req.Options)
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
		if q.monitorOpts, err = validateMonitorSpec(req.Monitor, q.net); err != nil {
			return nil, err
		}
		q.monitorFP = vnn.MonitorWorkloadFingerprint(q.fingerprint, req.Monitor.Data, q.monitorOpts)
	}
	return q, nil
}

// inferShard is one per-core serving lane: exclusively owned scratch for
// the batched kernels plus its own throughput counters. Shards are
// leased through a token channel, so at most len(shards) chunks run at
// once and a shard's scratch never sees two goroutines.
type inferShard struct {
	// idx is the lane number: the shard's fixed position in the set,
	// used as the histogram shard and the `lane` label/attr in traces
	// and the Prometheus rendering.
	idx int
	// sc serves every batch the lane runs, monitored or not, whatever the
	// network or monitor: it holds buffers only, grown to the largest
	// batch seen, so a warmed lane allocates nothing and keeps no
	// reference to a monitor the cache has evicted.
	sc vnn.MonitorBatchScratch

	batches atomic.Int64
	inputs  atomic.Int64
}

// inferShards is the fixed shard set plus the lease tokens.
type inferShards struct {
	shards []*inferShard
	tokens chan *inferShard
}

func newInferShards(n int) *inferShards {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &inferShards{shards: make([]*inferShard, n), tokens: make(chan *inferShard, n)}
	for i := range p.shards {
		sh := &inferShard{idx: i}
		p.shards[i] = sh
		p.tokens <- sh
	}
	return p
}

// runInfer evaluates the batch, sharding it across the serving lanes.
// Outputs (and verdicts, when mon is non-nil) land in the caller's
// slices; the split cannot change bits — every cell is produced in the
// kernels' fixed accumulation order whichever shard computes it. Returns
// ctx.Err() if the batch was interrupted.
func (s *Server) runInfer(ctx context.Context, sp *obs.Span, net *vnn.Network, mon *vnn.Monitor, inputs, outputs [][]float64, verdicts []vnn.MonitorVerdict) error {
	batch := len(inputs)
	chunks := (batch + minShardChunk - 1) / minShardChunk
	if chunks > len(s.shards.shards) {
		chunks = len(s.shards.shards)
	}
	if chunks < 1 {
		chunks = 1
	}
	size := (batch + chunks - 1) / chunks
	var interrupted atomic.Bool
	run := func(lo, hi int) {
		sh := <-s.shards.tokens
		defer func() { s.shards.tokens <- sh }()
		sh.batches.Add(1)
		chunkStart := time.Now()
		for i := lo; i < hi; i += inferCancelStride {
			if ctx.Err() != nil {
				interrupted.Store(true)
				return
			}
			j := min(i+inferCancelStride, hi)
			if mon != nil {
				mon.CheckBatchInto(outputs[i:j], &sh.sc, inputs[i:j], verdicts[i:j])
			} else {
				net.ForwardBatchInto(outputs[i:j], &sh.sc.Forward, inputs[i:j])
			}
			sh.inputs.Add(int64(j - i))
		}
		// One histogram add and (when traced) one span per chunk — the
		// per-input loop above stays observation-free.
		d := time.Since(chunkStart)
		s.obs.hist[hInferChunk].ObserveShard(sh.idx, int64(d))
		cs := sp.ChildTimed("chunk", d)
		cs.SetAttr("lane", sh.idx)
		cs.SetAttr("inputs", hi-lo)
	}
	if chunks == 1 {
		run(0, batch)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < chunks; c++ {
			lo := c * size
			hi := min(lo+size, batch)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(lo, hi)
			}()
		}
		wg.Wait()
	}
	if interrupted.Load() {
		return ctx.Err()
	}
	return nil
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req InferRequest
	if !s.accept(w, r, &req) {
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
				status = registryStatus(err)
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
		// work only drain may interrupt). The built monitor is then cached
		// under its own workload fingerprint and indexed by its content
		// hash for by-fingerprint reuse.
		cn, hit, err := s.compiled(ctx, root, q.workload, q.compileOpts)
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		resp.CacheHit = hit
		mon, hit, err = s.buildMonitor(ctx, root, q.monitorFP, cn, req.Monitor.Data, q.monitorOpts)
		if err != nil {
			writeError(w, statusFor(err), err.Error())
			return
		}
		resp.MonitorCacheHit = hit
	case q.monitorContentFP != "":
		var ok bool
		mon, ok = s.monitors.lookupContent(q.monitorContentFP)
		if !ok {
			writeError(w, http.StatusNotFound,
				fmt.Sprintf("monitor %s: %s (send the full monitor spec once to rebuild it)", q.monitorContentFP, errUnknownFingerprint))
			return
		}
		// A monitor describes one certified artifact; refuse to run it
		// against a different workload.
		if mon.NetworkFingerprint() != q.fingerprint {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("monitor %s belongs to workload %s, not %s", q.monitorContentFP, mon.NetworkFingerprint(), q.fingerprint))
			return
		}
		resp.MonitorCacheHit = true
	}
	if sv != nil {
		// Registry-served: the resolved version's artifacts are warm by
		// construction (compiled at gate time or recovery), so routed
		// requests never compile on the hot path.
		mon = sv.Monitor
		resp.CacheHit = true
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
	err = s.runInfer(ctx, runSpan, net, mon, req.Inputs, outputs, verdicts)
	runSpan.End()
	if err != nil {
		// Unlike verification there is no anytime value in half a batch:
		// predictions are cheap to re-request, so an interrupted batch is
		// an error (503 on drain/disconnect, 504 on budget).
		writeError(w, statusFor(err), err.Error())
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
		sv.Version.CountServeTenant(tn.Label(), len(req.Inputs), resp.Flagged)
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

// monitorCache is the fingerprint-keyed LRU of built monitors with the
// same singleflight semantics as the compile cache: N concurrent
// identical monitored-infer requests build exactly one monitor; failures
// are not cached. Monitors are immutable and safe to share. Completed
// entries are additionally indexed by the monitor's content hash, so
// by-fingerprint requests (InferRequest.MonitorFingerprint) resolve
// without re-sending the build dataset.
type monitorCache struct {
	*lru[*vnn.Monitor]
	// byContent maps a built monitor's content fingerprint to the key of
	// its entry, guarded by the lru's mutex (the ready/drop hooks maintain
	// it). Content-identical monitors from distinct workloads share a
	// hash; the index keeps the most recently built one, and dropping an
	// entry only clears the index if it still points at that entry.
	byContent map[string]string
}

func newMonitorCache(capacity int) *monitorCache {
	c := &monitorCache{lru: newLRU[*vnn.Monitor](capacity), byContent: make(map[string]string)}
	// bytes (marshaled monitor size) feeds the GET /v1/workloads index.
	c.sizeOf = func(m *vnn.Monitor) int64 {
		doc, err := vnn.MarshalMonitor(m)
		if err != nil {
			return 0
		}
		return int64(len(doc))
	}
	c.onReady = func(key string, m *vnn.Monitor) { c.byContent[m.Fingerprint()] = key }
	c.onDrop = func(key string, m *vnn.Monitor) {
		if c.byContent[m.Fingerprint()] == key {
			delete(c.byContent, m.Fingerprint())
		}
	}
	return c
}

// buildMonitor returns the monitor cached under the build-workload
// fingerprint wfp, building it over cn on a miss, and records the "monitor"
// span under root either way. /v1/infer and the model gate share it, so a
// version's serving monitor is also reusable by monitor_fingerprint
// requests and fleet replication. Only actual builds feed the histogram;
// hits are cache waits.
func (s *Server) buildMonitor(ctx context.Context, root *obs.Span, wfp string, cn *vnn.CompiledNetwork, data [][]float64, opts vnn.MonitorOptions) (*vnn.Monitor, bool, error) {
	sp := root.Child("monitor")
	defer sp.End()
	buildStart := time.Now()
	mon, hit, err := s.monitors.getOrCompute(ctx, wfp, func() (*vnn.Monitor, error) {
		return vnn.BuildMonitor(cn, data, opts)
	})
	if !hit {
		observeSince(s.obs.hist[hMonitorBuild], buildStart)
	}
	sp.SetAttr("hit", hit)
	return mon, hit, err
}

// contentKeys snapshots the content fingerprints of every completed
// monitor — the monitor half of the fleet plane's set enumeration.
func (c *monitorCache) contentKeys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.byContent))
	for fp := range c.byContent {
		out = append(out, fp)
	}
	return out
}

// importContent inserts an externally obtained (already verified)
// monitor, keyed by its content fingerprint — a pulled monitor has no
// local build-workload key, and the vnnm1-/vnnmw1- namespaces are
// disjoint so content keys never collide with build keys. Reports
// false when the content is already cached (local build raced the
// pull and won; the entries are content-identical either way).
func (c *monitorCache) importContent(mon *vnn.Monitor) bool {
	fp := mon.Fingerprint()
	c.mu.Lock()
	_, ok := c.byContent[fp]
	c.mu.Unlock()
	if ok {
		return false
	}
	return c.add(fp, mon)
}

// lookupContent resolves a built monitor by its content fingerprint
// (Monitor.Fingerprint), touching its workload entry's LRU position.
func (c *monitorCache) lookupContent(contentFP string) (*vnn.Monitor, bool) {
	c.mu.Lock()
	key, ok := c.byContent[contentFP]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return c.lookup(key, true)
}
