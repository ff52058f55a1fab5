// Package obs is vnnd's flight recorder: allocation-conscious latency
// histograms and per-request span traces for the serving stack built
// around the verification pipeline. The package has two halves:
//
//   - Histogram: a log2-bucketed, sharded-by-core counter set whose hot
//     path is two atomic adds and zero allocations, cheap enough to sit
//     on /v1/infer's per-batch path (see BenchmarkObserve and the
//     allocation pin in histogram_test.go).
//   - Recorder/Trace/Span: per-request traces with named phases
//     (admission wait, cache lookup, compile, LP tighten, MILP encode,
//     branch-and-bound, monitor build, fleet reconcile/pull) kept in a
//     fixed-size lock-free ring of recent traces plus an always-retained
//     slowest-K-per-route reservoir.
//
// Everything in the package is nil-safe: a nil *Histogram, *Recorder,
// *Trace or *Span no-ops on every method, so call sites thread
// instrumentation unconditionally and the un-instrumented configuration
// pays one predictable nil check.
package obs

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
)

// NumBuckets is the number of finite histogram buckets. Bucket k counts
// observations v with bits.Len64(v) == k, i.e. v in [2^(k-1), 2^k).
// Bucket 0 absorbs v <= 0 and bucket NumBuckets is the overflow bucket
// (+Inf in the Prometheus rendering). 44 finite buckets cover up to
// 2^43-1 nanoseconds ≈ 2.4 hours, far beyond any request timeout.
const NumBuckets = 44

// maxShards bounds the shard fan-out on very wide machines; past this
// point the snapshot cost grows faster than contention shrinks.
const maxShards = 64

// histShard is one core's view of the histogram. The trailing pad keeps
// adjacent shards on distinct cache lines so concurrent observers do
// not false-share.
type histShard struct {
	counts [NumBuckets + 1]atomic.Int64
	sum    atomic.Int64
	_      [64]byte
}

// Histogram is a log2-bucketed counter set sharded to keep concurrent
// observers off each other's cache lines. Observe is two shard-local
// atomic adds — no locks, no allocation (pinned by TestObserveAllocs).
type Histogram struct {
	// Name is the Prometheus family (the renderer owns the help text);
	// Scale converts a recorded integer to the exposition unit (e.g.
	// 1e-9 turns nanoseconds into seconds). Scale 0 means 1.
	Name  string
	Scale float64

	shards []histShard
	mask   uint64
}

// NewHistogram returns a histogram with one shard per core (rounded up
// to a power of two, capped at maxShards). name and scale seed the
// Prometheus exposition; pass scale 1e-9 for nanosecond observations
// rendered as seconds, 1 (or 0) for dimensionless sizes.
func NewHistogram(name string, scale float64) *Histogram {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	shards := 1
	for shards < n {
		shards <<= 1
	}
	return &Histogram{
		Name:   name,
		Scale:  scale,
		shards: make([]histShard, shards),
		mask:   uint64(shards - 1),
	}
}

// bucketOf maps an observation to its bucket index: bits.Len64 for
// positive values (so bucket k holds [2^(k-1), 2^k)), clamped into the
// finite range with one overflow bucket at the top.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > NumBuckets {
		return NumBuckets
	}
	return b
}

// Observe records one value. The shard is picked from the runtime's
// per-P cheap random source (math/rand/v2's top-level functions do not
// allocate and do not contend), which spreads concurrent observers
// across cache lines without needing a core id.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	sh := &h.shards[rand.Uint64()&h.mask]
	sh.counts[bucketOf(v)].Add(1)
	sh.sum.Add(v)
}

// BucketUpper returns bucket k's inclusive upper bound in recorded
// units (2^k - 1); the overflow bucket has no finite bound and callers
// render it as +Inf.
func BucketUpper(k int) int64 {
	return int64(1)<<uint(k) - 1
}

// HistogramJSON is the one read form of a histogram: Snapshot returns
// it, the /metrics document and fleet federation carry it, and the
// Prometheus renderer reads it. Buckets are per-bucket (non-cumulative)
// counts; a short wire array reads as zero-padded. Merging is exact
// element-wise addition: log2 boundaries are identical on every node.
type HistogramJSON struct {
	Name string `json:"name,omitempty"`
	// Route labels the request-duration family; empty elsewhere.
	Route   string  `json:"route,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

// Merge adds o into j bucket-wise. A receiver with no name first takes
// o's name, route and scale, so merging into a zero value is a deep
// copy; otherwise the receiver's win (a fleet runs one binary, so
// scales agree in practice).
func (j *HistogramJSON) Merge(o HistogramJSON) {
	if j.Name == "" {
		j.Name, j.Route, j.Scale = o.Name, o.Route, o.Scale
	}
	if len(j.Buckets) < NumBuckets+1 {
		b := make([]int64, NumBuckets+1)
		copy(b, j.Buckets)
		j.Buckets = b
	}
	for i, c := range o.Buckets {
		if i > NumBuckets {
			break
		}
		j.Buckets[i] += c
	}
	j.Count += o.Count
	j.Sum += o.Sum
}

// Delta returns j - earlier, clamped at zero per bucket — the traffic
// between two snapshots of one monotone histogram. vnnctl top feeds the
// result to Quantile for interval p50/p99.
func (j HistogramJSON) Delta(earlier HistogramJSON) HistogramJSON {
	out := HistogramJSON{Name: j.Name, Route: j.Route, Scale: j.Scale}
	out.Buckets = make([]int64, NumBuckets+1)
	for i := range out.Buckets {
		var a, b int64
		if i < len(j.Buckets) {
			a = j.Buckets[i]
		}
		if i < len(earlier.Buckets) {
			b = earlier.Buckets[i]
		}
		if d := a - b; d > 0 {
			out.Buckets[i] = d
			out.Count += d
		}
	}
	if out.Sum = j.Sum - earlier.Sum; out.Sum < 0 {
		out.Sum = 0
	}
	return out
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) in
// exposition units (bucket upper bound × scale): the smallest bucket
// boundary at which the cumulative count reaches q×Count. An empty
// histogram returns 0; observations in the overflow bucket report the
// last finite boundary (the rendering's +Inf has no finite bound).
func (j HistogramJSON) Quantile(q float64) float64 {
	if j.Count <= 0 {
		return 0
	}
	need := int64(q * float64(j.Count))
	if need < 1 {
		need = 1
	}
	scale := j.Scale
	if scale == 0 {
		scale = 1
	}
	var cum int64
	for i, c := range j.Buckets {
		cum += c
		if cum >= need {
			k := i
			if k > NumBuckets-1 {
				k = NumBuckets - 1 // overflow: report the last finite bound
			}
			return float64(BucketUpper(k)) * scale
		}
	}
	return float64(BucketUpper(NumBuckets-1)) * scale
}

// Snapshot folds all shards into one read: NumBuckets+1 per-bucket
// counts, their total and the raw sum, with Scale 0 read as 1.
// Concurrent observations may land between shard reads, so Count can
// trail a just-returned Observe, but every counted observation is in
// exactly one bucket and Sum only includes counted values' shards.
func (h *Histogram) Snapshot() HistogramJSON {
	if h == nil {
		return HistogramJSON{}
	}
	s := HistogramJSON{Name: h.Name, Scale: h.Scale, Buckets: make([]int64, NumBuckets+1)}
	if s.Scale == 0 {
		s.Scale = 1
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			c := sh.counts[b].Load()
			s.Buckets[b] += c
			s.Count += c
		}
		s.Sum += sh.sum.Load()
	}
	return s
}
