// Package vnnregistry is vnnd's verified-rollout plane: a versioned model
// registry where every version must pass a certification gate — the
// paper's dependability portfolio run as an admission control — before it
// can take traffic. The registry owns the model lifecycle
//
//	pending → (gate) → admitted → canary(p%) → live → retired
//	                 ↘ rejected
//
// and serves it through a single atomically-swapped route table, so
// cutover and rollback are one pointer store: the previous version's
// compiled artifact and monitor stay warm in memory, making rollback a
// route change rather than a recompile. State persists as one JSON
// snapshot (see persist.go), whose per-version transition history is the
// audit trail, so a daemon restart recovers the serving table.
//
// The package runs no engine work of its own. The host runs a version's
// gate on its one solve path and reports the outcome (Decide, FailGate —
// see gate.go); the decision logic lives on vnn.GateSpec where every other
// wire shape lives. The one engine call left here is recovery's recompile
// of persisted versions, through the host's injected compile cache.
package vnnregistry

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/vnn"
)

// Version lifecycle states, as persisted and spoken on the wire.
type State string

const (
	// StatePending: submitted, gate not yet decided. Never routes.
	StatePending State = "pending"
	// StateRejected: gate failed or errored. Terminal; never routes.
	StateRejected State = "rejected"
	// StateAdmitted: gate passed; eligible for canary/promotion.
	StateAdmitted State = "admitted"
	// StateCanary: serving a deterministic hash-selected traffic share.
	StateCanary State = "canary"
	// StateLive: the model's primary serving version.
	StateLive State = "live"
	// StateRetired: previously live, kept warm for one-RTT rollback.
	StateRetired State = "retired"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotReady: the registry has not finished (or failed) recovery.
	ErrNotReady = errors.New("vnnregistry: registry not ready")
	// ErrUnknownModel: no model registered under that name.
	ErrUnknownModel = errors.New("vnnregistry: unknown model")
	// ErrUnknownVersion: the model has no such version.
	ErrUnknownVersion = errors.New("vnnregistry: unknown version")
	// ErrNoServing: the model exists but has no live or canary version.
	ErrNoServing = errors.New("vnnregistry: model has no serving version")
	// ErrBadTransition: the requested lifecycle change is illegal from
	// the version's current state.
	ErrBadTransition = errors.New("vnnregistry: illegal transition")
)

// Config wires a Registry into its host.
type Config struct {
	// Dir is the persistence directory (-data-dir), which holds the one
	// snapshot file registry.json; "" disables persistence (state lives
	// for the process only).
	Dir string
	// Compile recompiles a recovered version's serving artifact; required.
	// The server injects its singleflight compile cache, so recovery shares
	// one compile per workload with every request.
	Compile vnn.CompileFunc
	// ImportMonitor, when set, is offered every monitor reconstructed
	// during recovery so the host can prime its own serving caches.
	ImportMonitor func(*vnn.Monitor)
	// Logf receives recovery/persistence diagnostics; nil discards.
	Logf func(format string, args ...any)
}

// Version is one registered model version. Identity and lifecycle fields
// are guarded by the registry lock; the compiled artifact and monitor are
// written only before the version is published into a route table, and the
// serving counters are atomic — so the infer hot path reads a resolved
// version without locks.
type Version struct {
	model string
	seq   int

	state         State
	fingerprint   string
	networkJSON   json.RawMessage
	regionSpec    vnn.RegionSpec
	tighten       bool
	gate          *vnn.GateSpec
	decision      *vnn.GateDecisionJSON
	gateErr       string
	canaryPercent int
	submitted     time.Time
	transitions   []vnn.TransitionJSON

	monitorOpts vnn.MonitorOptions
	monitorDoc  json.RawMessage // marshaled monitor, persisted for recovery
	monitorFP   string

	jobID string // gate job id (trace id); process-local

	net     *vnn.Network
	region  *vnn.Region
	cn      *vnn.CompiledNetwork
	monitor *vnn.Monitor

	requests atomic.Int64
	inputs   atomic.Int64
	flagged  atomic.Int64
}

// Model returns the owning model name.
func (v *Version) Model() string { return v.model }

// Seq returns the 1-based version number within its model.
func (v *Version) Seq() int { return v.seq }

// Fingerprint returns the compile-workload fingerprint.
func (v *Version) Fingerprint() string { return v.fingerprint }

// CountServe records one served inference request against the version.
func (v *Version) CountServe(inputs, flagged int) {
	v.requests.Add(1)
	v.inputs.Add(int64(inputs))
	v.flagged.Add(int64(flagged))
}

// model groups a name's versions plus the one-step rollback pointer.
type model struct {
	name     string
	versions []*Version
	prevLive int // seq retired from live at the last cutover; 0 none
}

func (m *model) version(seq int) (*Version, bool) {
	if seq < 1 || seq > len(m.versions) {
		return nil, false
	}
	return m.versions[seq-1], true
}

func (m *model) live() *Version {
	for _, v := range m.versions {
		if v.state == StateLive {
			return v
		}
	}
	return nil
}

func (m *model) canary() *Version {
	for _, v := range m.versions {
		if v.state == StateCanary {
			return v
		}
	}
	return nil
}

// route is one model's serving entry in the immutable route table.
type route struct {
	live      *Version
	canary    *Version
	canaryPct int
}

// routeTable is the atomically-published serving state: one immutable map
// built under the registry lock, installed with a single pointer store.
type routeTable struct {
	models map[string]*route
}

// Registry is the verified-rollout control plane. All lifecycle mutations
// run under mu and republish the route table; serving reads only the
// atomic table pointer.
type Registry struct {
	cfg Config

	mu     sync.Mutex
	models map[string]*model

	routes atomic.Pointer[routeTable]

	ready    atomic.Bool
	readyErr atomic.Pointer[string]
}

// New creates a registry. Snapshot loading is deferred to Recover so the
// host can boot its HTTP surface immediately and report readiness honestly
// (see /readyz); until Recover completes, serving and mutations fail with
// ErrNotReady.
func New(cfg Config) *Registry {
	return &Registry{cfg: cfg, models: make(map[string]*model)}
}

// Ready reports whether recovery completed and the route table serves.
func (r *Registry) Ready() bool { return r.ready.Load() }

// ReadyReason returns "" when ready, else why not (recovering, or a
// recovery failure message).
func (r *Registry) ReadyReason() string {
	if r.ready.Load() {
		return ""
	}
	if msg := r.readyErr.Load(); msg != nil {
		return "registry recovery failed: " + *msg
	}
	return "registry recovery in progress"
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Submission is a validated POST /v1/models body, parsed by the host into
// engine values. The registry records it as a pending version; the host's
// gate run decides its fate (Decide, FailGate).
type Submission struct {
	Model       string
	NetworkJSON json.RawMessage
	Net         *vnn.Network
	Region      *vnn.Region
	RegionSpec  vnn.RegionSpec
	Fingerprint string
	Tighten     bool
	Gate        *vnn.GateSpec // nil admits without analysis (ungated)
	// MonitorFingerprint keys the serving-monitor build workload (see
	// vnn.MonitorWorkloadFingerprint) and MonitorOpts are its options;
	// both zero when the submission carries no monitor.
	MonitorFingerprint string
	MonitorOpts        vnn.MonitorOptions
	// GateJob is the job/trace id of the host's gate run, recorded with
	// the version so its events are addressable from the moment it exists.
	GateJob string
}

// Submit registers a new pending version of sub.Model (creating the model
// on first submission) and persists the snapshot so a crash mid-gate is
// recovered as a rejected version, never a silently lost one. A registry
// that is not ready refuses with ErrNotReady, wrapped with the reason.
func (r *Registry) Submit(sub Submission) (*Version, error) {
	if !r.ready.Load() {
		return nil, fmt.Errorf("%w: %s", ErrNotReady, r.ReadyReason())
	}
	if sub.Model == "" {
		return nil, fmt.Errorf("vnnregistry: submission needs a model name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[sub.Model]
	if m == nil {
		m = &model{name: sub.Model}
		r.models[sub.Model] = m
	}
	v := &Version{
		model:       sub.Model,
		seq:         len(m.versions) + 1,
		state:       StatePending,
		fingerprint: sub.Fingerprint,
		networkJSON: sub.NetworkJSON,
		regionSpec:  sub.RegionSpec,
		tighten:     sub.Tighten,
		gate:        sub.Gate,
		monitorFP:   sub.MonitorFingerprint,
		monitorOpts: sub.MonitorOpts,
		jobID:       sub.GateJob,
		submitted:   time.Now(),
		net:         sub.Net,
		region:      sub.Region,
	}
	m.versions = append(m.versions, v)
	v.transitions = []vnn.TransitionJSON{{To: string(StatePending), Reason: "submitted", AtUnixMS: v.submitted.UnixMilli()}}
	r.saveLocked()
	return v, nil
}

// GateJob returns the gate job id for a model version.
func (r *Registry) GateJob(name string, seq int) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[name]
	if m == nil {
		return "", ErrUnknownModel
	}
	v, ok := m.version(seq)
	if !ok {
		return "", ErrUnknownVersion
	}
	if v.jobID == "" {
		return "", fmt.Errorf("%w: version %d has no gate run this process", ErrUnknownVersion, seq)
	}
	return v.jobID, nil
}

// transitionLocked moves a version to a new state and records the step in
// the version history; the caller's snapshot save persists it. Callers
// hold r.mu.
func (r *Registry) transitionLocked(v *Version, to State, reason string) {
	v.transitions = append(v.transitions, vnn.TransitionJSON{
		From: string(v.state), To: string(to), Reason: reason, AtUnixMS: time.Now().UnixMilli(),
	})
	v.state = to
}

// rebuildRoutesLocked republishes the serving table from current states.
func (r *Registry) rebuildRoutesLocked() {
	t := &routeTable{models: make(map[string]*route, len(r.models))}
	for name, m := range r.models {
		rt := &route{live: m.live(), canary: m.canary()}
		if rt.canary != nil {
			rt.canaryPct = rt.canary.canaryPercent
		}
		if rt.live != nil || rt.canary != nil {
			t.models[name] = rt
		}
	}
	r.routes.Store(t)
}

// Promote moves a version toward traffic. seq 0 targets the newest
// admitted-or-canary version. canaryPct in [1, 99] starts (or resizes) a
// canary against the current live version; 0 or 100 performs the full
// cutover — the previous live version retires but stays warm, becoming the
// one-RTT rollback target.
func (r *Registry) Promote(name string, seq, canaryPct int) (vnn.ModelVersionJSON, error) {
	if !r.ready.Load() {
		return vnn.ModelVersionJSON{}, ErrNotReady
	}
	if canaryPct < 0 || canaryPct > 100 {
		return vnn.ModelVersionJSON{}, fmt.Errorf("vnnregistry: canary_percent %d outside [0, 100]", canaryPct)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[name]
	if m == nil {
		return vnn.ModelVersionJSON{}, ErrUnknownModel
	}
	var v *Version
	if seq > 0 {
		var ok bool
		if v, ok = m.version(seq); !ok {
			return vnn.ModelVersionJSON{}, fmt.Errorf("%w: %s has no version %d", ErrUnknownVersion, name, seq)
		}
	} else {
		for i := len(m.versions) - 1; i >= 0; i-- {
			if s := m.versions[i].state; s == StateAdmitted || s == StateCanary {
				v = m.versions[i]
				break
			}
		}
		if v == nil {
			return vnn.ModelVersionJSON{}, fmt.Errorf("%w: %s has no admitted version to promote", ErrBadTransition, name)
		}
	}
	live := m.live()
	if canaryPct >= 1 && canaryPct <= 99 {
		if v.state != StateAdmitted && v.state != StateCanary {
			return vnn.ModelVersionJSON{}, fmt.Errorf("%w: cannot canary version %d in state %s", ErrBadTransition, v.seq, v.state)
		}
		if live == nil {
			return vnn.ModelVersionJSON{}, fmt.Errorf("%w: %s has no live version to canary against; promote to live", ErrBadTransition, name)
		}
		if live == v {
			return vnn.ModelVersionJSON{}, fmt.Errorf("%w: version %d is already live", ErrBadTransition, v.seq)
		}
		if c := m.canary(); c != nil && c != v {
			r.transitionLocked(c, StateAdmitted, fmt.Sprintf("superseded by canary v%d", v.seq))
		}
		v.canaryPercent = canaryPct
		if v.state == StateCanary {
			r.transitionLocked(v, StateCanary, fmt.Sprintf("canary resized to %d%%", canaryPct))
		} else {
			r.transitionLocked(v, StateCanary, fmt.Sprintf("canary at %d%%", canaryPct))
		}
	} else { // full cutover
		switch v.state {
		case StateAdmitted, StateCanary, StateRetired:
		default:
			return vnn.ModelVersionJSON{}, fmt.Errorf("%w: cannot promote version %d in state %s", ErrBadTransition, v.seq, v.state)
		}
		if live == v {
			return vnn.ModelVersionJSON{}, fmt.Errorf("%w: version %d is already live", ErrBadTransition, v.seq)
		}
		if c := m.canary(); c != nil && c != v {
			r.transitionLocked(c, StateAdmitted, fmt.Sprintf("superseded by cutover to v%d", v.seq))
		}
		if live != nil {
			r.transitionLocked(live, StateRetired, fmt.Sprintf("superseded by v%d", v.seq))
			m.prevLive = live.seq
		}
		v.canaryPercent = 0
		r.transitionLocked(v, StateLive, "promoted to live")
	}
	r.rebuildRoutesLocked()
	r.saveLocked()
	return r.docLocked(v), nil
}

// Rollback swaps the model back to the version retired at the last
// cutover. Both artifacts are warm, so the swap is one route-table store —
// no recompile, no gate re-run (the retired version's certification still
// stands). An in-flight canary is demoted back to admitted.
func (r *Registry) Rollback(name string) (vnn.ModelVersionJSON, error) {
	if !r.ready.Load() {
		return vnn.ModelVersionJSON{}, ErrNotReady
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[name]
	if m == nil {
		return vnn.ModelVersionJSON{}, ErrUnknownModel
	}
	live := m.live()
	if live == nil {
		return vnn.ModelVersionJSON{}, fmt.Errorf("%w: %s has no live version", ErrBadTransition, name)
	}
	prev, ok := m.version(m.prevLive)
	if !ok || prev.state != StateRetired {
		return vnn.ModelVersionJSON{}, fmt.Errorf("%w: %s has no retired previous version to roll back to", ErrBadTransition, name)
	}
	if c := m.canary(); c != nil {
		r.transitionLocked(c, StateAdmitted, "rollback")
	}
	r.transitionLocked(live, StateRetired, fmt.Sprintf("rolled back to v%d", prev.seq))
	r.transitionLocked(prev, StateLive, "rollback")
	m.prevLive = live.seq
	r.rebuildRoutesLocked()
	r.saveLocked()
	return r.docLocked(prev), nil
}

// Resolved is a routing decision for one inference request: the version to
// serve and its warm artifacts, readable without locks.
type Resolved struct {
	Version *Version
	// Route is "live" or "canary".
	Route   string
	CN      *vnn.CompiledNetwork
	Monitor *vnn.Monitor
}

// Resolve routes one inference request for a named model. Canary selection
// is deterministic: a 64-bit FNV-1a hash over the IEEE-754 bits of every
// input, reduced mod 100 and compared against the canary share — the same
// request body always lands on the same version at a fixed fraction, and a
// request stays on its version as the fraction only grows past its bucket.
func (r *Registry) Resolve(name string, inputs [][]float64) (*Resolved, error) {
	if !r.ready.Load() {
		return nil, ErrNotReady
	}
	t := r.routes.Load()
	if t == nil {
		return nil, ErrNotReady
	}
	rt := t.models[name]
	if rt == nil {
		r.mu.Lock()
		_, known := r.models[name]
		r.mu.Unlock()
		if known {
			return nil, ErrNoServing
		}
		return nil, ErrUnknownModel
	}
	if rt.canary != nil && int(routeHash(inputs)%100) < rt.canaryPct {
		return &Resolved{Version: rt.canary, Route: "canary", CN: rt.canary.cn, Monitor: rt.canary.monitor}, nil
	}
	if rt.live == nil {
		return nil, ErrNoServing
	}
	return &Resolved{Version: rt.live, Route: "live", CN: rt.live.cn, Monitor: rt.live.monitor}, nil
}

// routeHash folds every input's IEEE-754 bit pattern through 64-bit
// FNV-1a. Hashing value bits (not a text rendering) makes routing
// insensitive to JSON formatting while staying bit-exact on content.
func routeHash(inputs [][]float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, row := range inputs {
		for _, x := range row {
			b := math.Float64bits(x)
			for s := 0; s < 64; s += 8 {
				h ^= (b >> s) & 0xff
				h *= prime64
			}
		}
	}
	return h
}

// docLocked renders a version's wire document. Callers hold r.mu.
func (r *Registry) docLocked(v *Version) vnn.ModelVersionJSON {
	doc := vnn.ModelVersionJSON{
		Model:              v.model,
		Version:            v.seq,
		State:              string(v.state),
		Fingerprint:        v.fingerprint,
		MonitorFingerprint: v.monitorFP,
		Gate:               v.decision,
		GateError:          v.gateErr,
		SubmittedUnixMS:    v.submitted.UnixMilli(),
		Transitions:        append([]vnn.TransitionJSON(nil), v.transitions...),
		Requests:           v.requests.Load(),
		Inputs:             v.inputs.Load(),
		Flagged:            v.flagged.Load(),
	}
	if v.state == StateCanary {
		doc.CanaryPercent = v.canaryPercent
	}
	return doc
}

// Doc renders one version's wire document.
func (r *Registry) Doc(v *Version) vnn.ModelVersionJSON {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.docLocked(v)
}

// ModelDoc is the wire document for one model: its routing plus every
// version.
type ModelDoc struct {
	Model         string                 `json:"model"`
	Live          int                    `json:"live,omitempty"`
	Canary        int                    `json:"canary,omitempty"`
	CanaryPercent int                    `json:"canary_percent,omitempty"`
	PreviousLive  int                    `json:"previous_live,omitempty"`
	Versions      []vnn.ModelVersionJSON `json:"versions"`
}

func (r *Registry) modelDocLocked(m *model) ModelDoc {
	doc := ModelDoc{Model: m.name, PreviousLive: m.prevLive}
	if v := m.live(); v != nil {
		doc.Live = v.seq
	}
	if v := m.canary(); v != nil {
		doc.Canary = v.seq
		doc.CanaryPercent = v.canaryPercent
	}
	for _, v := range m.versions {
		doc.Versions = append(doc.Versions, r.docLocked(v))
	}
	return doc
}

// Model returns one model's document.
func (r *Registry) Model(name string) (ModelDoc, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[name]
	if m == nil {
		return ModelDoc{}, ErrUnknownModel
	}
	return r.modelDocLocked(m), nil
}

// Models returns every model's document, sorted by name.
func (r *Registry) Models() []ModelDoc {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.models))
	for name := range r.models {
		names = append(names, name)
	}
	sort.Strings(names)
	docs := make([]ModelDoc, 0, len(names))
	for _, name := range names {
		docs = append(docs, r.modelDocLocked(r.models[name]))
	}
	return docs
}

// VersionMetric is the per-version slice of the registry's metrics block:
// rollout state plus serving/monitor counters.
type VersionMetric struct {
	Model         string `json:"model"`
	Version       int    `json:"version"`
	State         string `json:"state"`
	Fingerprint   string `json:"fingerprint"`
	CanaryPercent int    `json:"canary_percent,omitempty"`
	Requests      int64  `json:"requests"`
	Inputs        int64  `json:"inputs"`
	Flagged       int64  `json:"flagged"`
}

// Metrics summarizes the registry for /metrics: readiness, totals by
// state, and one row per version (model-name then version order).
type Metrics struct {
	Ready    bool            `json:"ready"`
	Models   int             `json:"models"`
	ByState  map[string]int  `json:"by_state"`
	Versions []VersionMetric `json:"versions"`
}

// Snapshot renders the registry metrics block.
func (r *Registry) Snapshot() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := Metrics{Ready: r.ready.Load(), Models: len(r.models), ByState: make(map[string]int)}
	names := make([]string, 0, len(r.models))
	for name := range r.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, v := range r.models[name].versions {
			m.ByState[string(v.state)]++
			vm := VersionMetric{
				Model:       v.model,
				Version:     v.seq,
				State:       string(v.state),
				Fingerprint: v.fingerprint,
				Requests:    v.requests.Load(),
				Inputs:      v.inputs.Load(),
				Flagged:     v.flagged.Load(),
			}
			if v.state == StateCanary {
				vm.CanaryPercent = v.canaryPercent
			}
			m.Versions = append(m.Versions, vm)
		}
	}
	return m
}
