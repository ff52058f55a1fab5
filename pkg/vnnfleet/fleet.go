// Package vnnfleet replicates vnnd's content-addressed caches across a
// static fleet of peers, so every node serves every other node's
// compiles and monitors without recompiling anything.
//
// The sync primitive is rateless set reconciliation (internal/riblt)
// over the nodes' fingerprint sets: each cache entry — a compile
// workload (vnn1-…) or a built monitor (vnnm1-…) — is folded to a
// 32-byte symbol (vnn.FingerprintSetHash), and a reconciliation round
// costs O(|difference|) coded symbols regardless of cache size, so
// nodes with 99%-overlapping caches exchange a handful of cells
// instead of full key lists.
//
// One round, always pull-shaped (both nodes run rounds periodically,
// which yields convergence in both directions):
//
//	follower                              peer
//	POST /v1/fleet/reconcile  ───────────▶
//	          ◀─────── binary coded-symbol stream (48-byte cells)
//	…decoder peels; closes the body once decoded…
//	POST /v1/fleet/resolve {hashes}  ────▶
//	          ◀─────── {hash → fingerprint}
//	GET /v1/workloads/{fp}  (per missing entry, compiles first) ──▶
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
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/riblt"
	"repro/pkg/vnn"
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
	// between the sketch snapshot and the pull. Skipped cleanly.
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
	// (compile workloads and built-monitor content hashes).
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

// resolveRequest/resolveResponse are the /v1/fleet/resolve wire forms:
// decoded 32-byte set hashes (hex) in, hash→fingerprint out. Hashes
// the node cannot resolve (entry evicted since the sketch was emitted)
// are simply absent from the response.
type resolveRequest struct {
	Hashes []string `json:"hashes"`
}

type resolveResponse struct {
	Fingerprints map[string]string `json:"fingerprints"`
}

const (
	// defaultMaxSymbols caps the coded symbols one reconcile round may
	// send or consume — a safety valve against a peer whose stream
	// never decodes, not a tuning knob (48 KiB per 1024 cells).
	defaultMaxSymbols = 1 << 16
	// flushStride is how many coded symbols are written between
	// explicit flushes, so the decoding side makes progress while the
	// stream is still being produced.
	flushStride = 64
	// maxResolveHashes bounds one resolve request.
	maxResolveHashes = 1 << 16
)

// Mount registers the peer-facing fleet endpoints on mux: the coded
// symbol stream, the hash resolver, and the by-fingerprint workload
// export. All three honor drain with 503.
func (p *Peer) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/fleet/reconcile", p.handleReconcile)
	mux.HandleFunc("POST /v1/fleet/resolve", p.handleResolve)
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

// handleReconcile streams coded symbols of the local fingerprint set
// until the puller hangs up (it decodes and closes the body) or the
// symbol cap trips.
func (p *Peer) handleReconcile(w http.ResponseWriter, r *http.Request) {
	if p.store.Draining() {
		httpError(w, http.StatusServiceUnavailable, "node is draining")
		return
	}
	seg := p.traceSegment(r, "fleet.symbols")
	defer seg.Finish()
	enc := riblt.NewEncoder()
	for _, fp := range p.store.FleetFingerprints() {
		enc.Add(riblt.Symbol(vnn.FingerprintSetHash(fp)))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 0, flushStride*riblt.CodedSymbolSize)
	for sent := 0; sent < p.opts.MaxSymbols; sent++ {
		c := enc.ProduceNextCodedSymbol()
		buf = c.AppendBinary(buf)
		if len(buf) >= flushStride*riblt.CodedSymbolSize {
			if _, err := w.Write(buf); err != nil {
				p.symbolsSent.Add(int64(sent + 1))
				return // puller decoded (or died); either way we are done
			}
			buf = buf[:0]
			if fl != nil {
				fl.Flush()
			}
		}
		if r.Context().Err() != nil {
			p.symbolsSent.Add(int64(sent + 1))
			return
		}
	}
	w.Write(buf)
	p.symbolsSent.Add(int64(p.opts.MaxSymbols))
}

// handleResolve maps decoded set hashes back to fingerprint strings.
func (p *Peer) handleResolve(w http.ResponseWriter, r *http.Request) {
	if p.store.Draining() {
		httpError(w, http.StatusServiceUnavailable, "node is draining")
		return
	}
	seg := p.traceSegment(r, "fleet.resolve")
	defer seg.Finish()
	var req resolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Hashes) > maxResolveHashes {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("%d hashes exceed the %d cap", len(req.Hashes), maxResolveHashes))
		return
	}
	wanted := make(map[string]bool, len(req.Hashes))
	for _, h := range req.Hashes {
		wanted[h] = true
	}
	resp := resolveResponse{Fingerprints: make(map[string]string)}
	for _, fp := range p.store.FleetFingerprints() {
		h := vnn.FingerprintSetHash(fp)
		if key := hex.EncodeToString(h[:]); wanted[key] {
			resp.Fingerprints[key] = fp
		}
	}
	writeJSON(w, http.StatusOK, resp)
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
