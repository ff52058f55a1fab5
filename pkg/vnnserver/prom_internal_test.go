package vnnserver

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestPromHistogramShortWire pins how the renderer reads a wire
// histogram from another build: a short bucket array renders as if
// zero-padded to NumBuckets+1, and Scale 0 as Scale 1.
func TestPromHistogramShortWire(t *testing.T) {
	full := obs.HistogramJSON{Name: "h", Scale: 1, Buckets: make([]int64, obs.NumBuckets+1), Count: 3, Sum: 4}
	full.Buckets[0], full.Buckets[1] = 1, 2
	short := obs.HistogramJSON{Name: "h", Buckets: []int64{1, 2}, Count: 3, Sum: 4}

	var want, got strings.Builder
	promHistogram(&want, "h", `route="/r"`, full)
	promHistogram(&got, "h", `route="/r"`, short)
	if got.String() != want.String() {
		t.Fatalf("short wire form renders\n%s\nwant\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), `h_bucket{route="/r",le="+Inf"} 3`+"\n") {
		t.Fatalf("+Inf bucket is not the total:\n%s", got.String())
	}
}
