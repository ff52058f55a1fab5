// Fleet metrics federation: GET /v1/fleet/metrics merges this node's
// /metrics snapshot with every configured peer's into one document —
// per-node blocks preserved under "nodes" (keyed by each node's stable
// id), plus an "aggregate" block where counters sum exactly and
// histograms merge bucket-wise (log2 boundaries are identical on every
// node by construction, so the merge is elementwise addition — see
// internal/obs). The same content negotiation as /metrics applies:
// JSON by default, Prometheus text exposition of the aggregate with
// Accept: text/plain or ?format=prometheus.
//
// Federation is one-hop by design: a node asks its peers for their
// LOCAL snapshots (never their federated view), so a fully-connected
// fleet cannot loop and a partially-connected one degrades to what the
// asked node can see. Unreachable peers land in "errors" instead of
// failing the document.

package vnnserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// fleetFetchTimeout bounds each peer metrics/trace fetch; a slow peer
// delays the federated document, never hangs it.
const fleetFetchTimeout = 5 * time.Second

// FleetMetrics is the GET /v1/fleet/metrics document.
type FleetMetrics struct {
	// Node is the serving node's id (whose view this is).
	Node string `json:"node"`
	// Nodes maps stable node id -> that node's full local snapshot.
	Nodes map[string]Metrics `json:"nodes"`
	// Errors maps peer base URL -> fetch error for unreachable peers.
	Errors map[string]string `json:"errors,omitempty"`
	// Aggregate is the fleet-wide merge: counters summed, histograms
	// merged bucket-wise, tenants merged by label. Per-node-identity
	// fields (build, registry, scheduler capacities) are not
	// meaningful fleet-wide and stay zero; read them per node.
	Aggregate Metrics `json:"aggregate"`
}

func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	local := s.Metrics()
	fm := FleetMetrics{
		Node:   s.nodeID,
		Nodes:  map[string]Metrics{local.Node: local},
		Errors: map[string]string{},
	}
	ctx, cancel := context.WithTimeout(r.Context(), fleetFetchTimeout)
	defer cancel()
	for _, base := range s.cfg.Peers {
		pm, err := fetchPeerMetrics(ctx, base)
		if err != nil {
			fm.Errors[base] = err.Error()
			continue
		}
		key := pm.Node
		if key == "" {
			key = base // pre-federation peer: fall back to its URL
		}
		if _, dup := fm.Nodes[key]; dup {
			// Two daemons started with one -node-id: keep the first block
			// rather than let the second replace it and shrink the aggregate.
			fm.Errors[base] = fmt.Sprintf("duplicate node id %q: snapshot ignored", key)
			continue
		}
		fm.Nodes[key] = pm
	}
	for _, m := range fm.Nodes {
		mergeMetrics(&fm.Aggregate, m)
	}
	if wantsProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		writePromFrom(w, fm.Aggregate)
		return
	}
	writeJSON(w, http.StatusOK, fm)
}

// fetchPeerMetrics pulls one peer's local /metrics JSON document.
func fetchPeerMetrics(ctx context.Context, base string) (Metrics, error) {
	var m Metrics
	body, err := fleetGet(ctx, strings.TrimSuffix(base, "/")+"/metrics")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("decode metrics: %w", err)
	}
	return m, nil
}

// fleetGet performs one bounded intra-fleet GET and returns the body.
func fleetGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(nil, resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return body, nil
}

// mergeMetrics folds src into dst for the fleet aggregate. Scalars
// follow their metricTable row: counters and additive gauges sum
// exactly, worst-case gauges take the max, per-node facts stay zero.
// Analyses sum by kind, histograms merge bucket-wise on (name, route),
// tenants merge by label through obs.MergeTenants. The structured
// per-node blocks (Build, Node, Registry, Peers) are left out.
func mergeMetrics(dst *Metrics, src Metrics) {
	for i := range metricTable {
		r := &metricTable[i]
		if r.merge == perNode {
			continue
		}
		switch d := r.at(dst).(type) {
		case *int64:
			mergeNum(d, *r.at(&src).(*int64), r.merge)
		case *int:
			mergeNum(d, *r.at(&src).(*int), r.merge)
		case *float64:
			mergeNum(d, *r.at(&src).(*float64), r.merge)
		}
	}
	if len(src.Analyses) > 0 && dst.Analyses == nil {
		dst.Analyses = make(map[string]int64, len(src.Analyses))
	}
	for k, v := range src.Analyses {
		dst.Analyses[k] += v
	}
	dst.Tenants = obs.MergeTenants(dst.Tenants, src.Tenants)
	dst.Histograms = mergeHistograms(dst.Histograms, src.Histograms)
}

func mergeNum[T int | int64 | float64](dst *T, src T, rule mergeRule) {
	if rule == mergeSum {
		*dst += src
	} else if src > *dst {
		*dst = src
	}
}

// mergeHistograms folds src's wire-form histograms into dst, matching
// entries on (name, route); a family dst has not seen is appended as a
// zero entry and folded like the rest. Bucket boundaries are identical
// on every node (log2 by construction), so entries add elementwise.
func mergeHistograms(dst, src []obs.HistogramJSON) []obs.HistogramJSON {
	for _, sh := range src {
		i := 0
		for i < len(dst) && (dst[i].Name != sh.Name || dst[i].Route != sh.Route) {
			i++
		}
		if i == len(dst) {
			dst = append(dst, obs.HistogramJSON{})
		}
		dst[i].Merge(sh)
	}
	return dst
}
