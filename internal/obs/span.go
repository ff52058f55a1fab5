package obs

import (
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span (cache hit, node count,
// peer URL, ...). Values are kept as any and rendered through
// encoding/json; call sites pass ints, bools and short strings.
type Attr struct {
	Key   string
	Value any
}

// Span is one named phase inside a trace. Spans nest: a compile span
// owns tighten and encode children, a solve span owns one child per
// property the branch-and-bound walked. All mutation is guarded by the
// owning trace's mutex — spans are built on request paths whose
// concurrency is bounded by the scheduler, so a per-trace mutex is
// cheap and keeps the ring publication trivially safe.
//
// A nil *Span no-ops on every method, so handlers instrument
// unconditionally and pay one nil check when tracing is off.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time // monotonic (time.Now keeps the monotonic reading)
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Child opens a nested span. The child starts now and must be ended by
// the caller (or it is clamped to the trace end at snapshot time).
func (sp *Span) Child(name string) *Span {
	if sp == nil || sp.tr == nil {
		return nil
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if sp.tr.finished {
		return nil
	}
	c := &Span{tr: sp.tr, name: name, start: time.Now()}
	sp.children = append(sp.children, c)
	return c
}

// ChildTimed attaches an already-measured phase as a completed child
// ending now, with the given duration. This is how phases timed
// elsewhere (a compile's own LP tighten and MILP encode durations)
// become spans without the phase code knowing about tracing.
func (sp *Span) ChildTimed(name string, d time.Duration) *Span {
	if sp == nil || sp.tr == nil {
		return nil
	}
	if d < 0 {
		d = 0
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if sp.tr.finished {
		return nil
	}
	c := &Span{tr: sp.tr, name: name, start: time.Now().Add(-d), dur: d, ended: true}
	sp.children = append(sp.children, c)
	return c
}

// SetAttr sets (or overwrites) one annotation.
func (sp *Span) SetAttr(key string, value any) {
	if sp == nil || sp.tr == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	for i := range sp.attrs {
		if sp.attrs[i].Key == key {
			sp.attrs[i].Value = value
			return
		}
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
}

// End closes the span. Ending twice keeps the first duration.
func (sp *Span) End() {
	if sp == nil || sp.tr == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if !sp.ended {
		sp.ended = true
		sp.dur = time.Since(sp.start)
	}
}

// Duration returns the span's duration so far (final once ended).
func (sp *Span) Duration() time.Duration {
	if sp == nil || sp.tr == nil {
		return 0
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if sp.ended {
		return sp.dur
	}
	return time.Since(sp.start)
}

// Trace is one request's span tree, rooted at the route span. Traces
// are created by Recorder.Start, mutated through their spans, and
// published into the recorder's ring by Finish.
type Trace struct {
	rec       *Recorder
	id        string
	route     string
	wallStart time.Time
	// tp is this segment's W3C identity: TraceID is shared by every
	// segment of a distributed trace (adopted from an inbound
	// traceparent, minted otherwise), SpanID identifies this segment as
	// a parent for calls it propagates to. parent is the remote caller's
	// span id (zero when this segment is the trace root).
	tp     TraceParent
	parent [8]byte

	mu       sync.Mutex
	root     *Span
	finished bool
	dur      time.Duration
}

// ID returns the trace id (caller-chosen or auto-assigned).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// HexTraceID returns the 32-hex fleet-wide trace id shared by every
// segment of a distributed trace.
func (t *Trace) HexTraceID() string {
	if t == nil {
		return ""
	}
	return t.tp.HexTraceID()
}

// Propagation returns the traceparent to inject on outbound calls made
// under this trace, so the callee's segment joins the same trace. A nil
// trace returns an invalid (zero) TraceParent; callers skip injection.
func (t *Trace) Propagation() TraceParent {
	if t == nil {
		return TraceParent{}
	}
	return t.tp
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span, freezes the trace and publishes it to the
// recorder's ring and slowest-per-route reservoir. Finishing twice is
// a no-op.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	if !t.root.ended {
		t.root.ended = true
		t.root.dur = time.Since(t.root.start)
	}
	t.dur = t.root.dur
	t.mu.Unlock()
	t.rec.publish(t)
}

// Duration returns the trace's wall duration (final once finished).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return t.dur
	}
	return time.Since(t.root.start)
}

// RecorderOptions configures a Recorder. The zero value is usable.
type RecorderOptions struct {
	// Ring is the capacity of the recent-traces ring: the last Ring
	// finished traces are kept (default 256).
	Ring int
	// SlowestPerRoute is how many slowest traces are retained per route
	// regardless of ring churn (default 8).
	SlowestPerRoute int
	// SlowThreshold, when positive, fires SlowLog for any finished trace
	// at least this slow.
	SlowThreshold time.Duration
	// SlowLog receives one line per slow trace; wired to the server's
	// logger by cmd/vnnd's -slow-log flag.
	SlowLog func(format string, args ...any)
	// Node is the stable node id stamped on every rendered trace, so a
	// fleet-merged span tree attributes each segment to its origin.
	Node string
}

// Recorder owns the completed-trace ring and the slowest-K reservoir,
// both under one mutex: publish files a finished trace into each with a
// few stores, so a burst of finishing requests holds the lock only
// briefly.
type Recorder struct {
	ids atomic.Uint64

	slowThreshold time.Duration
	slowLog       func(format string, args ...any)
	node          string

	mu       sync.Mutex
	ring     []*Trace // ring[next] is the oldest slot once the ring is full
	next     int
	slowestK int
	slowest  map[string][]*Trace // per route, sorted slowest-first
}

// NewRecorder builds a recorder.
func NewRecorder(opts RecorderOptions) *Recorder {
	ring := opts.Ring
	if ring <= 0 {
		ring = 256
	}
	k := opts.SlowestPerRoute
	if k <= 0 {
		k = 8
	}
	return &Recorder{
		ring:          make([]*Trace, ring),
		slowThreshold: opts.SlowThreshold,
		slowLog:       opts.SlowLog,
		node:          opts.Node,
		slowestK:      k,
		slowest:       make(map[string][]*Trace),
	}
}

// Start opens a trace for route with the given id (auto-assigned when
// empty). The returned trace's root span is already running. A nil
// recorder returns a nil trace, whose spans in turn no-op.
func (r *Recorder) Start(route, id string) *Trace {
	return r.StartRemote(route, id, TraceParent{})
}

// StartRemote opens a trace segment that joins the distributed trace
// identified by an inbound traceparent: the caller's trace id is
// adopted (so fleet-wide lookup by the shared id finds this segment)
// and the caller's span id is recorded as the segment's remote parent.
// An invalid parent degrades to Start — a fresh root trace.
func (r *Recorder) StartRemote(route, id string, parent TraceParent) *Trace {
	if r == nil {
		return nil
	}
	if id == "" {
		id = fmt.Sprintf("t%08d", r.ids.Add(1))
	}
	t := &Trace{rec: r, id: id, route: route, wallStart: time.Now()}
	if parent.Valid() {
		t.tp = TraceParent{TraceID: parent.TraceID, SpanID: mintSpanID(), Flags: parent.Flags | 1}
		t.parent = parent.SpanID
	} else {
		t.tp = mintTraceParent()
	}
	t.root = &Span{tr: t, name: route, start: t.wallStart}
	return t
}

// publish files a finished trace into the ring and reservoir.
func (r *Recorder) publish(t *Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ring[r.next] = t
	r.next = (r.next + 1) % len(r.ring)
	// Insert t into the slowest-first list: into a new last slot while
	// the list is below K, else over its fastest entry if t is slower.
	list := r.slowest[t.route]
	if len(list) < r.slowestK {
		list = append(list, nil)
	}
	if i := len(list) - 1; list[i] == nil || t.dur > list[i].dur {
		for ; i > 0 && list[i-1].dur < t.dur; i-- {
			list[i] = list[i-1]
		}
		list[i] = t
		r.slowest[t.route] = list
	}
	r.mu.Unlock()

	if r.slowThreshold > 0 && t.dur >= r.slowThreshold && r.slowLog != nil {
		r.slowLog("slow request route=%s id=%s duration=%s", t.route, t.id, t.dur)
	}
}

// TraceSummary is the /debug/traces list entry.
type TraceSummary struct {
	ID         string  `json:"id"`
	TraceID    string  `json:"trace_id"`
	Route      string  `json:"route"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
}

// Recent returns summaries of the ring's traces, newest first.
func (r *Recorder) Recent() []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TraceSummary
	for _, t := range r.recentLocked() {
		out = append(out, t.summary())
	}
	return out
}

// recentLocked lists the ring's traces, newest first. Callers hold r.mu.
func (r *Recorder) recentLocked() []*Trace {
	var out []*Trace
	for i := 1; i <= len(r.ring); i++ {
		if t := r.ring[(r.next-i+len(r.ring))%len(r.ring)]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Slowest returns the retained slowest traces per route, slowest first
// within a route, routes sorted by name.
func (r *Recorder) Slowest() map[string][]TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]TraceSummary, len(r.slowest))
	for route, list := range r.slowest {
		s := make([]TraceSummary, len(list))
		for i, t := range list {
			s[i] = t.summary()
		}
		out[route] = s
	}
	return out
}

// Segments returns every retained trace that belongs to the given
// distributed trace (matched by local id or 32-hex trace id), newest
// publication first. One propagated trace id can own several local
// segments — a fleet round serves one export per pulled entry — so the
// by-id endpoint renders them all.
func (r *Recorder) Segments(id string) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[*Trace]bool)
	var out []*Trace
	for _, t := range r.recentLocked() {
		if t.matches(id) && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, list := range r.slowest {
		for _, t := range list {
			if t.matches(id) && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// matches reports whether id names this trace locally (job id) or
// fleet-wide (hex trace id). Both fields are immutable after Start.
func (t *Trace) matches(id string) bool {
	return t.id == id || t.tp.HexTraceID() == id
}

func (t *Trace) summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSummary{
		ID:         t.id,
		TraceID:    t.tp.HexTraceID(),
		Route:      t.route,
		Start:      t.wallStart.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(t.dur) / 1e6,
	}
}

// TraceJSON is the /debug/traces/{id} document: the full span tree of
// one segment, plus — on the primary segment of a distributed trace —
// every other segment (local or fetched through from peers) that shares
// its trace id.
type TraceJSON struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id"`
	// Node is the stable id of the node that recorded this segment
	// (RecorderOptions.Node; empty on unconfigured recorders).
	Node string `json:"node,omitempty"`
	// ParentSpan is the remote caller's span id when this segment joined
	// a propagated trace; empty on root segments.
	ParentSpan string    `json:"parent_span,omitempty"`
	Route      string    `json:"route"`
	Start      string    `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Root       *SpanJSON `json:"root"`
	// SpanID is this segment's own span id — the value remote segments
	// name in ParentSpan.
	SpanID string `json:"span_id,omitempty"`
	// Segments holds the other segments of the same distributed trace,
	// filled by the serving layer (never recursively).
	Segments []TraceJSON `json:"segments,omitempty"`
}

// SpanJSON is one rendered span. StartUS is the offset from the trace
// start in microseconds; durations are microseconds too (phase times
// down at nanosecond resolution stay legible as fractions).
type SpanJSON struct {
	Name       string         `json:"name"`
	StartUS    float64        `json:"start_us"`
	DurationUS float64        `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanJSON    `json:"children,omitempty"`
}

// JSON renders the trace's span tree. Unended spans (a still-running
// trace, or a span the handler forgot to End) are clamped to the trace
// end so durations stay internally consistent.
func (t *Trace) JSON() TraceJSON {
	if t == nil {
		return TraceJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.root.start.Add(t.dur)
	if !t.finished {
		end = time.Now()
	}
	out := TraceJSON{
		ID:         t.id,
		TraceID:    t.tp.HexTraceID(),
		Route:      t.route,
		Start:      t.wallStart.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(end.Sub(t.root.start)) / 1e6,
		Root:       renderSpan(t.root, t.root.start, end),
		SpanID:     hexSpanID(t.tp.SpanID),
	}
	if t.rec != nil {
		out.Node = t.rec.node
	}
	if t.parent != [8]byte{} {
		out.ParentSpan = hexSpanID(t.parent)
	}
	return out
}

func hexSpanID(id [8]byte) string {
	return hex.EncodeToString(id[:])
}

func renderSpan(sp *Span, traceStart, traceEnd time.Time) *SpanJSON {
	d := sp.dur
	if !sp.ended {
		d = traceEnd.Sub(sp.start)
		if d < 0 {
			d = 0
		}
	}
	out := &SpanJSON{
		Name:       sp.name,
		StartUS:    float64(sp.start.Sub(traceStart)) / 1e3,
		DurationUS: float64(d) / 1e3,
	}
	if len(sp.attrs) > 0 {
		out.Attrs = make(map[string]any, len(sp.attrs))
		for _, a := range sp.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range sp.children {
		out.Children = append(out.Children, renderSpan(c, traceStart, traceEnd))
	}
	return out
}
