package vnnserver

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// run admits fn and executes it, the two steps the request pipeline takes
// apart (serveJob admits, runJob runs).
func run(ctx context.Context, s *Scheduler, fn func(ctx context.Context, workers int) error) error {
	if err := s.Admit(); err != nil {
		return err
	}
	return s.RunAdmitted(ctx, nil, fn)
}

// TestSchedulerBackpressure pins admission semantics: one query runs, one
// waits, the next is rejected immediately with ErrQueueFull.
func TestSchedulerBackpressure(t *testing.T) {
	s := NewScheduler(1, 1) // 1 running + 1 queued
	ctx := context.Background()

	running := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(ctx, s, func(context.Context, int) error {
			close(running)
			<-release
			return nil
		})
	}()
	<-running

	queuedStarted := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(ctx, s, func(context.Context, int) error {
			close(queuedStarted)
			return nil
		})
	}()
	// Wait for the second query to be counted as queued.
	for i := 0; s.Stats().Queued != 1; i++ {
		if i > 1000 {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is now full: a third query bounces without blocking.
	if err := run(ctx, s, func(context.Context, int) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third query err = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	close(release)
	<-queuedStarted // FIFO handoff: the queued query runs once the slot frees
	wg.Wait()
	st := s.Stats()
	if st.Active != 0 || st.Queued != 0 || st.Completed != 2 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestSchedulerFairShare pins the worker-budget division: a lone query
// receives the whole core budget; with two in flight each receives half
// (floored at 1).
func TestSchedulerFairShare(t *testing.T) {
	s := NewScheduler(2, 2)
	s.cores = 8 // fix the budget regardless of the test machine
	ctx := context.Background()

	var solo int
	if err := run(ctx, s, func(_ context.Context, workers int) error {
		solo = workers
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if solo != 8 {
		t.Fatalf("solo query got %d workers, want all 8", solo)
	}

	first := make(chan int, 1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(ctx, s, func(_ context.Context, workers int) error {
			first <- workers
			<-release
			return nil
		})
	}()
	w1 := <-first // first query admitted alone: full budget

	var w2 int
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(ctx, s, func(_ context.Context, workers int) error {
			w2 = workers
			close(release)
			return nil
		})
	}()
	wg.Wait()

	if w1 != 8 {
		t.Fatalf("first concurrent query got %d workers, want 8", w1)
	}
	if w2 != 4 {
		t.Fatalf("second concurrent query got %d workers, want fair share 4", w2)
	}
}

// TestSchedulerQueuedCancellation pins that a query abandoned while
// waiting for a slot returns its context error without ever running.
func TestSchedulerQueuedCancellation(t *testing.T) {
	s := NewScheduler(1, 1)
	running := make(chan struct{})
	release := make(chan struct{})
	go run(context.Background(), s, func(context.Context, int) error {
		close(running)
		<-release
		return nil
	})
	<-running
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := run(ctx, s, func(context.Context, int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("cancelled query ran anyway")
	}
	if got := s.Stats().Queued; got != 0 {
		t.Fatalf("queued leaked: %d", got)
	}
}
