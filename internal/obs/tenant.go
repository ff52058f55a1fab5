package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tenant-label constants. An absent X-API-Key accounts under
// AnonymousTenant; once the cardinality cap is reached every new key
// accounts under OverflowTenant, so a key-spraying client can never
// grow the label space past cap+1 values.
const (
	AnonymousTenant = "anonymous"
	OverflowTenant  = "other"
)

// The per-tenant histogram families, as named on the wire and in the
// scrape.
const (
	TenantLatencyFamily   = "vnnd_tenant_request_duration_seconds"
	TenantQueueWaitFamily = "vnnd_tenant_queue_wait_seconds"
)

// DefaultTenantCap is the default cardinality cap for per-tenant
// accounting: the first DefaultTenantCap distinct labels get their own
// series, the rest share OverflowTenant.
const DefaultTenantCap = 32

// TenantSet is the per-tenant accounting plane: a capped registry of
// TenantStats keyed by an API-key-derived label. Admission is
// first-come-first-served up to the cap — the stable policy for a
// metrics plane, since a tenant's series must not appear and disappear
// between scrapes — and everything past the cap aggregates into one
// overflow tenant. Lookup of a known tenant is one RLock'd map read;
// all counting below it is lock-free.
type TenantSet struct {
	limit  int
	scale  float64
	routes []string

	mu      sync.RWMutex
	tenants map[string]*TenantStats
	other   *TenantStats
}

// TenantStats is one tenant's counters. The per-route map is built once
// at tenant creation over the set's fixed route universe and never
// mutated, so route lookups need no lock.
type TenantStats struct {
	label     string
	inputs    atomic.Int64
	flagged   atomic.Int64
	queueWait *Histogram
	routes    map[string]*TenantRoute
}

// TenantRoute is one (tenant, route) series: a request counter and a
// latency histogram.
type TenantRoute struct {
	requests atomic.Int64
	latency  *Histogram
}

// NewTenantSet builds a tenant registry over a fixed route universe.
// limit <= 0 means DefaultTenantCap; scale is the latency/queue-wait
// histogram scale (1e-9 for nanosecond observations rendered as
// seconds). The overflow tenant exists from the start.
func NewTenantSet(limit int, scale float64, routes ...string) *TenantSet {
	if limit <= 0 {
		limit = DefaultTenantCap
	}
	ts := &TenantSet{
		limit:   limit,
		scale:   scale,
		routes:  routes,
		tenants: make(map[string]*TenantStats),
	}
	ts.other = ts.newStats(OverflowTenant)
	return ts
}

func (ts *TenantSet) newStats(label string) *TenantStats {
	t := &TenantStats{
		label:     label,
		queueWait: NewHistogram(TenantQueueWaitFamily, ts.scale),
		routes:    make(map[string]*TenantRoute, len(ts.routes)),
	}
	for _, route := range ts.routes {
		t.routes[route] = &TenantRoute{
			latency: NewHistogram(TenantLatencyFamily, ts.scale),
		}
	}
	return t
}

// Tenant resolves an API key to its tenant's stats, creating the tenant
// if the cap allows and returning the overflow tenant otherwise. The
// empty key is the anonymous tenant (it counts against the cap like any
// other label, but is only created when anonymous traffic exists).
// Safe for concurrent use; the hot path (known tenant) takes only a
// read lock and allocates nothing.
func (ts *TenantSet) Tenant(key string) *TenantStats {
	if ts == nil {
		return nil
	}
	if key == "" {
		key = AnonymousTenant
	}
	ts.mu.RLock()
	t := ts.tenants[key]
	ts.mu.RUnlock()
	if t != nil {
		return t
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t = ts.tenants[key]; t != nil {
		return t
	}
	if len(ts.tenants) >= ts.limit {
		return ts.other
	}
	t = ts.newStats(key)
	ts.tenants[key] = t
	return t
}

// Labels returns the current label values including the overflow
// tenant, unordered. Never exceeds cap+1.
func (ts *TenantSet) Labels() []string {
	if ts == nil {
		return nil
	}
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]string, 0, len(ts.tenants)+1)
	for label := range ts.tenants {
		out = append(out, label)
	}
	return append(out, OverflowTenant)
}

// Label returns the tenant's label value.
func (t *TenantStats) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Route returns the (tenant, route) series, or nil for a route outside
// the set's universe — which then no-ops, like every obs primitive.
func (t *TenantStats) Route(route string) *TenantRoute {
	if t == nil {
		return nil
	}
	return t.routes[route]
}

// CountInputs accounts a served batch's effort: total inputs and how
// many the monitor flagged. Called before the route request counter,
// preserving the snapshot monotone guarantee.
func (t *TenantStats) CountInputs(inputs, flagged int) {
	if t == nil {
		return
	}
	t.inputs.Add(int64(inputs))
	t.flagged.Add(int64(flagged))
}

// ObserveQueueWait records one admission wait.
func (t *TenantStats) ObserveQueueWait(d time.Duration) {
	if t == nil {
		return
	}
	t.queueWait.Observe(int64(d))
}

// Count records one completed request and its latency.
func (r *TenantRoute) Count(d time.Duration) {
	if r == nil {
		return
	}
	r.latency.Observe(int64(d))
	r.requests.Add(1)
}

// TenantSnapshot is one tenant's wire-form counters, keyed by route
// where applicable. Routes with zero requests are omitted to keep the
// document proportional to actual traffic.
type TenantSnapshot struct {
	Routes    map[string]TenantRouteSnapshot `json:"routes,omitempty"`
	Inputs    int64                          `json:"inputs"`
	Flagged   int64                          `json:"flagged"`
	QueueWait HistogramJSON                  `json:"queue_wait"`
}

// TenantRouteSnapshot is one (tenant, route) series' wire form.
type TenantRouteSnapshot struct {
	Requests int64         `json:"requests"`
	Latency  HistogramJSON `json:"latency"`
}

// Snapshot renders every tenant (overflow included) to wire form.
// Request counters are read before the latency histograms, so a
// concurrent request can skew count-vs-histogram only in the benign
// direction (histogram sees it, counter not yet).
func (ts *TenantSet) Snapshot() map[string]TenantSnapshot {
	if ts == nil {
		return nil
	}
	ts.mu.RLock()
	stats := make([]*TenantStats, 0, len(ts.tenants)+1)
	for _, t := range ts.tenants {
		stats = append(stats, t)
	}
	stats = append(stats, ts.other)
	ts.mu.RUnlock()

	out := make(map[string]TenantSnapshot, len(stats))
	for _, t := range stats {
		out[t.label] = t.snapshot()
	}
	return out
}

func (t *TenantStats) snapshot() TenantSnapshot {
	s := TenantSnapshot{
		Inputs:    t.inputs.Load(),
		Flagged:   t.flagged.Load(),
		QueueWait: t.queueWait.Snapshot().JSON(),
	}
	for route, r := range t.routes {
		requests := r.requests.Load()
		if requests == 0 {
			continue
		}
		if s.Routes == nil {
			s.Routes = make(map[string]TenantRouteSnapshot)
		}
		lat := r.latency.Snapshot().JSON()
		lat.Route = route
		s.Routes[route] = TenantRouteSnapshot{Requests: requests, Latency: lat}
	}
	return s
}

// MergeTenants folds src into dst tenant-wise: counters sum, histograms
// merge bucket-wise, and tenants absent from dst are copied in. Used by
// the fleet federation aggregate. The per-node cardinality cap bounds
// the merged label space at nodes × (cap+1) in the worst case; in
// practice tenants hit every node and the spaces coincide.
func MergeTenants(dst map[string]TenantSnapshot, src map[string]TenantSnapshot) map[string]TenantSnapshot {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]TenantSnapshot, len(src))
	}
	for label, s := range src {
		d, ok := dst[label]
		if !ok {
			dst[label] = cloneTenantSnapshot(s)
			continue
		}
		d.Inputs += s.Inputs
		d.Flagged += s.Flagged
		d.QueueWait.Merge(s.QueueWait)
		for route, sr := range s.Routes {
			dr, ok := d.Routes[route]
			if !ok {
				if d.Routes == nil {
					d.Routes = make(map[string]TenantRouteSnapshot)
				}
				lat := HistogramJSON{Name: sr.Latency.Name, Route: route, Scale: sr.Latency.Scale}
				lat.Merge(sr.Latency)
				d.Routes[route] = TenantRouteSnapshot{Requests: sr.Requests, Latency: lat}
				continue
			}
			dr.Requests += sr.Requests
			dr.Latency.Merge(sr.Latency)
			d.Routes[route] = dr
		}
		dst[label] = d
	}
	return dst
}

func cloneTenantSnapshot(s TenantSnapshot) TenantSnapshot {
	out := TenantSnapshot{Inputs: s.Inputs, Flagged: s.Flagged}
	out.QueueWait = HistogramJSON{Name: s.QueueWait.Name, Scale: s.QueueWait.Scale}
	out.QueueWait.Merge(s.QueueWait)
	for route, r := range s.Routes {
		if out.Routes == nil {
			out.Routes = make(map[string]TenantRouteSnapshot)
		}
		lat := HistogramJSON{Name: r.Latency.Name, Route: route, Scale: r.Latency.Scale}
		lat.Merge(r.Latency)
		out.Routes[route] = TenantRouteSnapshot{Requests: r.Requests, Latency: lat}
	}
	return out
}
