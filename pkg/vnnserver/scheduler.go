package vnnserver

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrQueueFull is returned by Scheduler.Admit when the bounded admission
// queue is full — the backpressure signal the HTTP layer maps to 429.
var ErrQueueFull = errors.New("vnnserver: admission queue full")

// defaultQueueDepth is the number of queries allowed to wait behind the
// running ones when the config leaves it zero.
const defaultQueueDepth = 256

// Scheduler admits queries under a global worker budget. At most
// maxConcurrent queries run at once; up to queueDepth more wait in FIFO
// order; anything beyond that is rejected immediately with ErrQueueFull
// so overload surfaces as fast backpressure instead of unbounded latency.
//
// Each admitted query receives a fair share of the core budget:
// GOMAXPROCS divided by the number of queries in flight at its admission
// (floored at 1). A lone query gets the whole machine — the same worker
// count the CLI would use — while a loaded server divides cores instead
// of oversubscribing them with maxConcurrent × GOMAXPROCS branch-and-
// bound workers. The share is advisory: requests pinning an explicit
// worker count bypass it (determinism across runs needs a fixed count;
// see DESIGN.md).
type Scheduler struct {
	queue chan struct{} // admission tokens: maxConcurrent + queueDepth
	slots chan struct{} // run tokens: maxConcurrent
	cores int

	active    atomic.Int64
	queued    atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64

	// queueWait/runTime decompose every admitted query's latency into
	// slot wait vs execution. Set once right after NewScheduler (the
	// server wires them before serving); nil histograms no-op.
	queueWait *obs.Histogram
	runTime   *obs.Histogram
}

// NewScheduler builds a scheduler running at most maxConcurrent queries
// (<= 0 means GOMAXPROCS) with queueDepth waiting slots (0 means
// defaultQueueDepth; negative means no queue).
func NewScheduler(maxConcurrent, queueDepth int) *Scheduler {
	if maxConcurrent <= 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case queueDepth == 0:
		queueDepth = defaultQueueDepth
	case queueDepth < 0:
		queueDepth = 0
	}
	return &Scheduler{
		queue: make(chan struct{}, maxConcurrent+queueDepth),
		slots: make(chan struct{}, maxConcurrent),
		cores: runtime.GOMAXPROCS(0),
	}
}

// Admit reserves an admission token without blocking, returning
// ErrQueueFull when the queue is saturated. Every successful Admit must
// be balanced by exactly one RunAdmitted call, which releases the token.
// Splitting admission from execution lets the HTTP layer reject an
// overloaded async submission with 429 up front instead of accepting a
// job doomed to bounce.
func (s *Scheduler) Admit() error {
	select {
	case s.queue <- struct{}{}:
		return nil
	default:
		s.rejected.Add(1)
		return ErrQueueFull
	}
}

// cancelAdmitted releases an admission token whose RunAdmitted will never
// run — submission failed between Admit and execution, so the balancing
// release must happen here instead.
func (s *Scheduler) cancelAdmitted() { <-s.queue }

// RunAdmitted executes fn on the calling goroutine for a query that
// already holds an admission token (see Admit), waiting for a run slot and
// releasing the token when done. It returns the context error if ctx fires
// while waiting for the slot, and otherwise whatever fn returns. fn
// receives the derived fair-share worker count. tn, when non-nil, receives
// the requesting tenant's queue-wait observation alongside the global
// histogram — the demand signal the per-tenant accounting plane exists
// for.
func (s *Scheduler) RunAdmitted(ctx context.Context, tn *obs.TenantStats, fn func(ctx context.Context, workers int) error) error {
	defer func() { <-s.queue }()

	enqueued := time.Now()
	s.queued.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		wait := time.Since(enqueued)
		s.queueWait.Observe(int64(wait))
		tn.ObserveQueueWait(wait)
		return ctx.Err()
	}
	wait := time.Since(enqueued)
	s.queueWait.Observe(int64(wait))
	tn.ObserveQueueWait(wait)
	started := time.Now()
	inFlight := s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		s.completed.Add(1)
		s.runTime.Observe(int64(time.Since(started)))
		<-s.slots
	}()

	workers := s.cores / int(inFlight)
	if workers < 1 {
		workers = 1
	}
	return fn(ctx, workers)
}

// SchedulerStats is a point-in-time snapshot of admission state.
type SchedulerStats struct {
	// Admitted counts outstanding admission tokens: queued plus running
	// plus queries between Admit and RunAdmitted. Zero means truly idle —
	// the signal Drain's grace loop waits on.
	Admitted      int64 `json:"admitted"`
	Active        int64 `json:"active"`
	Queued        int64 `json:"queued"`
	Rejected      int64 `json:"rejected"`
	Completed     int64 `json:"completed"`
	MaxConcurrent int   `json:"max_concurrent"`
	QueueDepth    int   `json:"queue_depth"`
	Cores         int   `json:"cores"`
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() SchedulerStats {
	return SchedulerStats{
		Admitted:      int64(len(s.queue)),
		Active:        s.active.Load(),
		Queued:        s.queued.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		MaxConcurrent: cap(s.slots),
		QueueDepth:    cap(s.queue) - cap(s.slots),
		Cores:         s.cores,
	}
}
