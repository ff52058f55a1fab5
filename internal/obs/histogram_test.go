package obs

import (
	"math"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{int64(1) << 42, NumBuckets - 1},
		{int64(1)<<43 - 1, NumBuckets - 1},
		{int64(1) << 43, NumBuckets},
		{math.MaxInt64, NumBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite bucket's upper bound must be strictly below the next.
	for k := 0; k < NumBuckets; k++ {
		if bucketOf(BucketUpper(k)) > k {
			t.Errorf("BucketUpper(%d)=%d lands in bucket %d", k, BucketUpper(k), bucketOf(BucketUpper(k)))
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram("test_seconds", 1e-9)
	values := []int64{0, 1, 3, 100, 1 << 20, 1 << 50}
	var wantSum int64
	for _, v := range values {
		h.Observe(v)
		wantSum += v
	}
	s := h.Snapshot()
	if s.Count != int64(len(values)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(values))
	}
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != Count %d", total, s.Count)
	}
	if s.Buckets[NumBuckets] != 1 {
		t.Fatalf("overflow bucket = %d, want 1 (for 2^50)", s.Buckets[NumBuckets])
	}
	if s.Buckets[0] != 1 {
		t.Fatalf("bucket 0 = %d, want 1 (for the zero observation)", s.Buckets[0])
	}
}

func TestObserveShard(t *testing.T) {
	h := NewHistogram("lanes", 1)
	for lane := 0; lane < 10; lane++ {
		h.ObserveShard(lane, int64(lane+1))
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("Count = %d, want 10", s.Count)
	}
	if s.Sum != 55 {
		t.Fatalf("Sum = %d, want 55", s.Sum)
	}
}

func TestNilHistogram(t *testing.T) {
	var h *Histogram
	h.Observe(42)        // must not panic
	h.ObserveShard(3, 7) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot Count = %d", s.Count)
	}
}

// TestObserveAllocs pins the hot path at zero allocations — the
// contract that lets histograms sit inside /v1/infer's chunk loop.
func TestObserveAllocs(t *testing.T) {
	h := NewHistogram("alloc_pin", 1e-9)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocates: %.1f allocs/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveShard(2, 12345) }); n != 0 {
		t.Fatalf("ObserveShard allocates: %.1f allocs/op", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("race", 1)
	done := make(chan struct{})
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.Observe(int64(i))
				h.ObserveShard(g, int64(i))
			}
		}(g)
	}
	// Concurrent snapshots while observers run (race coverage).
	for i := 0; i < 100; i++ {
		_ = h.Snapshot()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	s := h.Snapshot()
	if want := int64(goroutines * per * 2); s.Count != want {
		t.Fatalf("Count = %d, want %d", s.Count, want)
	}
}

// BenchmarkObserve is the committed evidence that recording a latency
// costs two atomic adds: it is gated in BENCH_infer.json alongside the
// kernel ladder (0 allocs/op, single-digit nanoseconds).
func BenchmarkObserve(b *testing.B) {
	h := NewHistogram("bench_seconds", 1e-9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkObserveParallel(b *testing.B) {
	h := NewHistogram("bench_par_seconds", 1e-9)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(1500)
		}
	})
}
