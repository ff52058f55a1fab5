// GET /debug/traces and /debug/traces/{id}: the flight recorder's HTTP
// surface. The list shows the most recent completed traces (ring order,
// newest first) plus the always-retained slowest traces per route; the
// by-id endpoint returns one full span tree. Trace ids for /v1/verify
// and /v1/analyze are the job ids those responses echo, so a client can
// go from a slow response straight to its trace.
//
// Distributed traces: a trace that crossed nodes (fleet pulls carry a
// traceparent header — see pkg/vnnfleet) leaves one segment per node,
// all sharing the W3C trace id. /debug/traces/{id} merges them: local
// sibling segments come from the recorder, remote ones are fetched
// through each configured peer (bounded, one hop — the ?local=1 guard
// stops peers from fanning out in turn).

package vnnserver

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// tracesIndex is the GET /debug/traces document.
type tracesIndex struct {
	Recent  []obs.TraceSummary            `json:"recent"`
	Slowest map[string][]obs.TraceSummary `json:"slowest"`
}

// handleTraces lists recent and slowest traces. ?route= keeps only one
// route's traces; ?limit= caps the recent list (newest first — the
// recorder ring is already in that order).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	idx := tracesIndex{Recent: s.obs.rec.Recent(), Slowest: s.obs.rec.Slowest()}
	if route := r.URL.Query().Get("route"); route != "" {
		kept := idx.Recent[:0]
		for _, t := range idx.Recent {
			if t.Route == route {
				kept = append(kept, t)
			}
		}
		idx.Recent = kept
		if sl, ok := idx.Slowest[route]; ok {
			idx.Slowest = map[string][]obs.TraceSummary{route: sl}
		} else {
			idx.Slowest = map[string][]obs.TraceSummary{}
		}
	}
	if lim := r.URL.Query().Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		if n < len(idx.Recent) {
			idx.Recent = idx.Recent[:n]
		}
	}
	if idx.Recent == nil {
		idx.Recent = []obs.TraceSummary{}
	}
	if idx.Slowest == nil {
		idx.Slowest = map[string][]obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, idx)
}

// handleTrace serves one trace by job id or hex trace id. Lookup order:
// local segments (the newest is the document root, the rest hang under
// it), then (unless ?local=1) a one-hop fetch through the fleet peers.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	localOnly := r.URL.Query().Get("local") == "1"

	if segs := s.obs.rec.Segments(id); len(segs) > 0 {
		doc := segs[0].JSON()
		s.attachSegments(r.Context(), &doc, segs[0], localOnly)
		writeJSON(w, http.StatusOK, doc)
		return
	}
	if !localOnly {
		if doc, ok := s.peerTrace(r.Context(), id); ok {
			writeJSON(w, http.StatusOK, doc)
			return
		}
	}
	writeError(w, http.StatusNotFound, "unknown trace id (evicted from the ring, or never traced)")
}

// attachSegments fills doc.Segments with the trace's other local
// segments and (unless localOnly) every peer-held segment.
func (s *Server) attachSegments(ctx context.Context, doc *obs.TraceJSON, primary *obs.Trace, localOnly bool) {
	for _, t := range s.obs.rec.Segments(doc.TraceID) {
		if t == primary {
			continue
		}
		doc.Segments = append(doc.Segments, t.JSON())
	}
	if !localOnly {
		doc.Segments = append(doc.Segments, s.peerSegments(ctx, doc.TraceID, doc.SpanID)...)
	}
}

// peerSegments asks every configured peer for its local segments of
// trace id, concurrently and bounded by fleetFetchTimeout. Unreachable
// peers are skipped — a partial tree beats no tree. skipSpan drops a
// peer's copy of the segment already serving as the document root.
func (s *Server) peerSegments(ctx context.Context, id, skipSpan string) []obs.TraceJSON {
	if len(s.cfg.Peers) == 0 || id == "" {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, fleetFetchTimeout)
	defer cancel()
	var mu sync.Mutex
	var out []obs.TraceJSON
	var wg sync.WaitGroup
	for _, base := range s.cfg.Peers {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			doc, ok := fetchPeerTrace(ctx, base, id)
			if !ok {
				return
			}
			segs := append([]obs.TraceJSON{doc}, doc.Segments...)
			doc.Segments = nil
			mu.Lock()
			for _, seg := range segs {
				if seg.SpanID != "" && seg.SpanID == skipSpan {
					continue
				}
				seg.Segments = nil
				out = append(out, seg)
			}
			mu.Unlock()
		}(base)
	}
	wg.Wait()
	return out
}

// peerTrace resolves a trace this node knows nothing about by asking
// the peers (one hop). The first peer with an answer wins; its document
// is served as-is, with this node contributing nothing.
func (s *Server) peerTrace(ctx context.Context, id string) (obs.TraceJSON, bool) {
	ctx, cancel := context.WithTimeout(ctx, fleetFetchTimeout)
	defer cancel()
	for _, base := range s.cfg.Peers {
		if doc, ok := fetchPeerTrace(ctx, base, id); ok {
			return doc, true
		}
	}
	return obs.TraceJSON{}, false
}

// fetchPeerTrace fetches one peer's local view of a trace. ?local=1
// keeps the peer from fanning out to ITS peers: fetch-through is
// one hop deep by construction.
func fetchPeerTrace(ctx context.Context, base, id string) (obs.TraceJSON, bool) {
	var doc obs.TraceJSON
	body, err := fleetGet(ctx, strings.TrimSuffix(base, "/")+"/debug/traces/"+id+"?local=1")
	if err != nil {
		return doc, false
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, false
	}
	return doc, doc.TraceID != ""
}
