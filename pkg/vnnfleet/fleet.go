// Package vnnfleet replicates vnnd's content-addressed caches across a
// static fleet of peers, so every node serves every other node's
// compiles and monitors without recompiling anything.
//
// The sync primitive is a key list: the replicable set — compile
// workloads (vnn1-…) and built monitors (vnnm1-…) — is bounded by the
// cache capacities (-cache × 2, 128 fingerprints by default, ~9 KB as
// JSON), which is less than half of one compiled-artifact pull, so a
// round fetches the peer's whole list and diffs it in a map. DESIGN.md
// "Fleet replication" has the measured traffic and the capacity at
// which a difference-sized sketch would pay again.
//
// One round, always pull-shaped (both nodes run rounds periodically,
// which yields convergence in both directions):
//
//	follower                              peer
//	GET /v1/fleet/fingerprints  ─────────▶
//	          ◀─────── {"fingerprints":[…]}
//	…diff against the local set; compiles before monitors…
//	GET /v1/workloads/{fp}  (per missing entry) ──▶
//	          ◀─────── WorkloadExport (marshaled artifact)
//	…verify fingerprint, check bounds, insert through singleflight…
//
// Everything pulled is re-verified before insertion (fingerprints are
// recomputed from content, bounds are containment-checked — see
// vnn.UnmarshalCompiled), so a corrupt or malicious peer cannot seed a
// cache with a mislabeled artifact. Inserts go through the same
// singleflight caches the local request paths use, so a concurrent
// local compile and a remote pull collapse to one entry.
package vnnfleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// Workload export kinds.
const (
	KindCompile = "compile"
	KindMonitor = "monitor"
)

// Sentinel errors the Store implementation classifies import/export
// failures with; the reconcile loop's skip/reject/abort behavior keys
// on them.
var (
	// ErrNotFound: the fingerprint is not cached (here) — e.g. evicted
	// between the list and the pull. Skipped cleanly.
	ErrNotFound = errors.New("vnnfleet: entry not found")
	// ErrDraining: the node is shutting down; no new work, no inserts.
	ErrDraining = errors.New("vnnfleet: node is draining")
	// ErrDependency: the entry needs another entry first (a monitor
	// without its compile workload). Skipped; a later round retries.
	ErrDependency = errors.New("vnnfleet: entry depends on an uncached workload")
	// ErrVerify: the payload failed content re-verification. Rejected —
	// never inserted, counted separately from skips.
	ErrVerify = errors.New("vnnfleet: payload failed verification")
)

// WorkloadExport is the wire form of one replicable cache entry.
type WorkloadExport struct {
	Fingerprint string `json:"fingerprint"`
	// Kind is KindCompile or KindMonitor.
	Kind string `json:"kind"`
	// Compiled is the marshaled compiled artifact (vnn.MarshalCompiled)
	// for compile entries.
	Compiled json.RawMessage `json:"compiled,omitempty"`
	// Monitor is the marshaled monitor (vnn.MarshalMonitor) for monitor
	// entries.
	Monitor json.RawMessage `json:"monitor,omitempty"`
}

// Store is the cache surface a Peer replicates: vnnserver.Server
// implements it over its compile and monitor caches, and tests
// implement fakes.
type Store interface {
	// FleetFingerprints snapshots every replicable fingerprint
	// (compile workloads and monitor names).
	FleetFingerprints() []string
	// ExportEntry renders one cached entry for a pulling peer;
	// ErrNotFound when the fingerprint is no longer cached.
	ExportEntry(fingerprint string) (*WorkloadExport, error)
	// ImportEntry verifies and inserts one pulled entry, through the
	// same deduplicating path local requests use. Classifies failures
	// with the sentinel errors above.
	ImportEntry(ctx context.Context, exp *WorkloadExport) error
	// Draining reports whether the node is shutting down; a draining
	// node neither serves fleet requests nor inserts pulled entries.
	Draining() bool
}

// listResponse is the GET /v1/fleet/fingerprints wire form.
type listResponse struct {
	Fingerprints []string `json:"fingerprints"`
}

const (
	// maxListEntries and maxListBytes bound the fingerprint list a
	// follower accepts from a peer — a safety valve against a hostile or
	// broken peer, not a tuning knob (the cap's worth of 73-byte entries
	// is 4.6 MiB).
	maxListEntries = 1 << 16
	maxListBytes   = 8 << 20
)

// Mount registers the peer-facing fleet endpoints on mux: the
// fingerprint list and the by-fingerprint workload export. Both honor
// drain with 503.
func (p *Peer) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/fleet/fingerprints", p.handleList)
	mux.HandleFunc("GET /v1/workloads/{fingerprint}", p.handleExport)
}

// traceSegment records this node's side of a fleet call as a segment
// of the caller's distributed trace: when the request carries a valid
// W3C traceparent (stamped by the pulling peer — see propagate) and a
// recorder is configured, the returned trace shares the caller's trace
// id and names the caller's span as its parent. Nil (a no-op trace)
// otherwise.
func (p *Peer) traceSegment(r *http.Request, route string) *obs.Trace {
	if p.opts.Recorder == nil {
		return nil
	}
	tp, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		return nil
	}
	return p.opts.Recorder.StartRemote(route, "", tp)
}

// handleList serves the local fingerprint set to a pulling peer.
func (p *Peer) handleList(w http.ResponseWriter, r *http.Request) {
	if p.store.Draining() {
		httpError(w, http.StatusServiceUnavailable, "node is draining")
		return
	}
	seg := p.traceSegment(r, "fleet.list")
	defer seg.Finish()
	fps := p.store.FleetFingerprints()
	if fps == nil {
		fps = []string{} // an empty set is [], never null
	}
	writeJSON(w, http.StatusOK, listResponse{Fingerprints: fps})
}

// handleExport serves GET /v1/workloads/{fingerprint}: the canonical
// marshaled artifact for any cached fingerprint, 404 on unknown.
func (p *Peer) handleExport(w http.ResponseWriter, r *http.Request) {
	if p.store.Draining() {
		httpError(w, http.StatusServiceUnavailable, "node is draining")
		return
	}
	fp := r.PathValue("fingerprint")
	seg := p.traceSegment(r, "fleet.export")
	seg.Root().SetAttr("fingerprint", fp)
	defer seg.Finish()
	exp, err := p.store.ExportEntry(fp)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			httpError(w, http.StatusNotFound, fmt.Sprintf("workload %s is not cached here", fp))
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	p.entriesPushed.Add(1)
	writeJSON(w, http.StatusOK, exp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
