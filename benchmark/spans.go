package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer (or one HTTP
// request it sent). Spans of one replayed request share Request; Parent is
// the id of the span that caused this one, 0 at the top.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// SelfUS is the duration minus the part child spans cover; filled in
	// when the trace is written.
	SelfUS float64 `json:"self_us"`
}

// recorder keeps spans in memory until the run ends. The spans live in the
// harness, around its calls into each package: vnnd itself is not changed
// by the benchmark. A nil recorder records nothing, which is how the
// untraced window runs the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id for end and for children.
func (r *recorder) start(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	now := float64(time.Since(r.t0).Nanoseconds()) / 1e3
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name, StartUS: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := float64(time.Since(r.t0).Nanoseconds()) / 1e3
	r.mu.Lock()
	r.spans[id-1].EndUS = now
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(name string, parent, request int, fn func()) {
	id := r.start(name, parent, request)
	fn()
	r.end(id)
}

// meanUS is the mean duration, in microseconds, of the spans called name
// (0 when there are none: the workload does not reach that layer).
func (r *recorder) meanUS(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			sum += s.EndUS - s.StartUS
			n++
		}
	}
	return ratio(sum, float64(n))
}

// write fills in self times and stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		r.spans[i].SelfUS = r.spans[i].EndUS - r.spans[i].StartUS
	}
	for _, s := range r.spans {
		if s.Parent > 0 {
			r.spans[s.Parent-1].SelfUS -= s.EndUS - s.StartUS
		}
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
