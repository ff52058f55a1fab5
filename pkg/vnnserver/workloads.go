// GET /v1/workloads: the index beside the fleet plane's per-entry
// GET /v1/workloads/{fingerprint} export. Where the export serves one
// artifact's canonical document to a reconciling peer, the index tells a
// fleet operator what a node currently holds — every completed compile
// and monitor artifact with its size and age — without transferring any
// of them.

package vnnserver

import (
	"net/http"
	"sort"
	"time"
)

// WorkloadIndexEntry is one cached artifact in the GET /v1/workloads
// index.
type WorkloadIndexEntry struct {
	// Fingerprint is the artifact's cache key: a vnn1- compile workload
	// or a vnnmw1- monitor build workload (the namespaces are disjoint).
	Fingerprint string `json:"fingerprint"`
	// Kind is "compile" or "monitor".
	Kind string `json:"kind"`
	// Bytes is the artifact's accounted size (compiled-network resident
	// size, or the marshaled monitor document length).
	Bytes int64 `json:"bytes"`
	// AgeMS is how long the artifact has been cached on this node.
	AgeMS float64 `json:"age_ms"`
}

// WorkloadsResponse is the GET /v1/workloads body.
type WorkloadsResponse struct {
	Count     int                  `json:"count"`
	Workloads []WorkloadIndexEntry `json:"workloads"`
}

// handleWorkloads serves the cached-artifact index. It stays readable
// during drain: operators inspect draining nodes, and the read touches no
// query state.
func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	compiles := s.cache.snapshot()
	monitors := s.monitors.snapshot()
	resp := WorkloadsResponse{Workloads: make([]WorkloadIndexEntry, 0, len(compiles)+len(monitors))}
	add := func(kind string, arts []cachedArtifact) {
		for _, a := range arts {
			resp.Workloads = append(resp.Workloads, WorkloadIndexEntry{
				Fingerprint: a.key,
				Kind:        kind,
				Bytes:       a.bytes,
				AgeMS:       float64(now.Sub(a.added).Microseconds()) / 1e3,
			})
		}
	}
	add("compile", compiles)
	add("monitor", monitors)
	// Deterministic order for scripts and smoke greps; the namespaces are
	// disjoint so fingerprint alone is a total key.
	sort.Slice(resp.Workloads, func(i, j int) bool {
		return resp.Workloads[i].Fingerprint < resp.Workloads[j].Fingerprint
	})
	resp.Count = len(resp.Workloads)
	writeJSON(w, http.StatusOK, resp)
}
