package obs

import (
	"testing"
	"time"
)

// TestHistogramJSONMerge pins the federation arithmetic: bucket-wise
// element sums, count/sum totals, and a merge into the zero value as the
// one way to copy a histogram.
func TestHistogramJSONMerge(t *testing.T) {
	a := NewHistogram("h", 1e-9)
	b := NewHistogram("h", 1e-9)
	for _, v := range []int64{3, 100, 5000} {
		a.Observe(v)
	}
	for _, v := range []int64{100, 1 << 50} { // second lands in overflow
		b.Observe(v)
	}

	ja, jb := a.Snapshot(), b.Snapshot()
	ja.Merge(jb)
	if ja.Count != 5 {
		t.Fatalf("merged count = %d, want 5", ja.Count)
	}
	if want := int64(3+100+5000+100) + 1<<50; ja.Sum != want {
		t.Fatalf("merged sum = %d, want %d", ja.Sum, want)
	}
	for i := range ja.Buckets {
		var want int64
		for _, v := range []int64{3, 100, 5000, 100, 1 << 50} {
			if bucketOf(v) == i {
				want++
			}
		}
		if ja.Buckets[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, ja.Buckets[i], want)
		}
	}
	if ja.Buckets[NumBuckets] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", ja.Buckets[NumBuckets])
	}

	// Merge into a zero value is a deep copy that takes the argument's
	// name, route and scale; a short wire array (forward compat) reads
	// as zero-padded.
	short := HistogramJSON{Name: "h", Route: "/r", Scale: 1e-9, Buckets: []int64{1, 2}, Count: 3, Sum: 4}
	var cp HistogramJSON
	cp.Merge(short)
	if cp.Name != "h" || cp.Route != "/r" || cp.Scale != 1e-9 || cp.Count != 3 || cp.Sum != 4 {
		t.Fatalf("zero-value merge header: %+v", cp)
	}
	if len(cp.Buckets) != NumBuckets+1 || cp.Buckets[0] != 1 || cp.Buckets[1] != 2 || cp.Buckets[2] != 0 {
		t.Fatalf("short bucket array mis-read: %v", cp.Buckets)
	}
	cp.Buckets[0] = 99
	if short.Buckets[0] != 1 {
		t.Fatal("zero-value merge aliases the argument's buckets")
	}
	// A named receiver keeps its own header.
	named := HistogramJSON{Name: "kept", Scale: 1}
	named.Merge(short)
	if named.Name != "kept" || named.Route != "" || named.Scale != 1 || named.Count != 3 {
		t.Fatalf("named receiver header: %+v", named)
	}
}

func TestHistogramJSONDeltaQuantile(t *testing.T) {
	h := NewHistogram("lat", 1)
	h.Observe(10)
	earlier := h.Snapshot()
	for i := 0; i < 99; i++ {
		h.Observe(100)
	}
	h.Observe(100000)
	delta := h.Snapshot().Delta(earlier)
	if delta.Count != 100 {
		t.Fatalf("delta count = %d, want 100", delta.Count)
	}
	if delta.Buckets[bucketOf(10)] != 0 {
		t.Fatal("delta kept pre-window traffic")
	}
	// p50 of 99×100 + 1×100000: bucket upper bound of bucketOf(100)=7 → 127.
	if got := delta.Quantile(0.50); got != 127 {
		t.Fatalf("p50 = %v, want 127", got)
	}
	// p100 hits the large observation's bucket upper bound.
	if got := delta.Quantile(1.0); got != float64(BucketUpper(bucketOf(100000))) {
		t.Fatalf("p100 = %v, want %v", got, BucketUpper(bucketOf(100000)))
	}
	if (HistogramJSON{}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// Scale converts to exposition units.
	scaled := delta
	scaled.Scale = 1e-9
	if got := scaled.Quantile(0.50); got != 127e-9 {
		t.Fatalf("scaled p50 = %v, want 127e-9", got)
	}
}

func TestReadRuntime(t *testing.T) {
	start := time.Now().Add(-2 * time.Second)
	rs := ReadRuntime(start)
	if rs.Goroutines < 1 {
		t.Fatalf("goroutines = %d, want >= 1", rs.Goroutines)
	}
	if rs.HeapInuseBytes <= 0 {
		t.Fatalf("heap in use = %d, want > 0", rs.HeapInuseBytes)
	}
	if rs.UptimeSeconds < 2 {
		t.Fatalf("uptime = %v, want >= 2s", rs.UptimeSeconds)
	}
	if rs.GCPauseP99MS < 0 {
		t.Fatalf("gc pause p99 = %v, want >= 0", rs.GCPauseP99MS)
	}
}
