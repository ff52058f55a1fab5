package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// forwardReference is the reference numerics: one sequential linalg.Dot
// per neuron, one fresh slice per layer. Forward must stay bit-identical
// to it forever — the verifier, trainer and every certification analysis
// are pinned to this order.
func forwardReference(n *Network, x []float64) []float64 {
	cur := x
	for _, l := range n.Layers {
		next := make([]float64, l.OutDim())
		for i, row := range l.W {
			next[i] = l.Act.Apply(linalg.Dot(row, cur) + l.B[i])
		}
		cur = next
	}
	return cur
}

// servingDot is an independent re-implementation of the serving
// accumulation order (linalg's dot4 contract): four math.FMA chains over
// the strided quarters, combined (s0+s1)+(s2+s3), tail folded in index
// order. The serving forwards must match it bit-for-bit.
func servingDot(a, b []float64) float64 {
	var s [4]float64
	n := len(b)
	j := 0
	for ; j+3 < n; j += 4 {
		for c := 0; c < 4; c++ {
			s[c] = math.FMA(a[j+c], b[j+c], s[c])
		}
	}
	out := (s[0] + s[1]) + (s[2] + s[3])
	for ; j < n; j++ {
		out = math.FMA(a[j], b[j], out)
	}
	return out
}

// servingReference evaluates the network in the serving order without
// touching the production kernels.
func servingReference(n *Network, x []float64) []float64 {
	cur := x
	for _, l := range n.Layers {
		next := make([]float64, l.OutDim())
		for i, row := range l.W {
			next[i] = l.Act.Apply(servingDot(row, cur) + l.B[i])
		}
		cur = next
	}
	return cur
}

func randInput(rng *rand.Rand, dim int) []float64 {
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// forwardOne runs x through the serving path as a batch of one — the
// subject of the TestForwardInto… tests below.
func forwardOne(n *Network, sc *Scratch, x []float64) []float64 {
	dst := make([]float64, n.OutputDim())
	n.ForwardBatchInto([][]float64{dst}, sc, [][]float64{x})
	return dst
}

// randBatch draws rows inputs for n and allocates matching output rows.
func randBatch(rng *rand.Rand, n *Network, rows int) (xs, out [][]float64) {
	xs = make([][]float64, rows)
	for i := range xs {
		xs[i] = randInput(rng, n.InputDim())
	}
	return xs, linalg.NewMatrix(rows, n.OutputDim())
}

var forwardCases = []Config{
	{Name: "deep", InputDim: 5, Hidden: []int{9, 3, 7}, OutputDim: 2, HiddenAct: ReLU, OutputAct: Identity},
	{Name: "tanh", InputDim: 4, Hidden: []int{6, 6}, OutputDim: 3, HiddenAct: Tanh, OutputAct: Tanh},
	{Name: "wide", InputDim: 2, Hidden: []int{31}, OutputDim: 1, HiddenAct: ReLU, OutputAct: Identity},
	{Name: "shallow", InputDim: 3, Hidden: nil, OutputDim: 4, HiddenAct: ReLU, OutputAct: Identity},
}

// TestForwardBitIdenticalToReference pins the reference path: Forward
// never changes numerics, whatever happens to the serving kernels.
func TestForwardBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range forwardCases {
		net := New(cfg, rng)
		for trial := 0; trial < 50; trial++ {
			x := randInput(rng, net.InputDim())
			want := forwardReference(net, x)
			got := net.Forward(x)
			for i := range want {
				if got[i] != want[i] { // bit-identical, no tolerance
					t.Fatalf("%s: Forward[%d] = %v, reference %v", cfg.Name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForwardIntoBitIdenticalToServingReference pins the serving path to
// the independently implemented dot4 order.
func TestForwardIntoBitIdenticalToServingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, cfg := range forwardCases {
		net := New(cfg, rng)
		scratch := net.NewScratch()
		for trial := 0; trial < 50; trial++ {
			x := randInput(rng, net.InputDim())
			want := servingReference(net, x)
			got := forwardOne(net, scratch, x)
			for i := range want {
				if got[i] != want[i] { // bit-identical, no tolerance
					t.Fatalf("%s: serving[%d] = %v, serving reference %v", cfg.Name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForwardIntoWithinToleranceOfForward bounds the divergence between
// the two orders: per output, n ULPs of the per-neuron accumulated
// magnitude, propagated through at most a doubling per layer — in
// practice far below 1e-12 relative for these widths. This is the
// documented serving-vs-reference contract; DESIGN.md "Kernel layer"
// explains why both orders are individually exact.
func TestForwardIntoWithinToleranceOfForward(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	net := New(Config{
		Name: "tol", InputDim: 84, Hidden: []int{40, 40, 40, 40}, OutputDim: 15,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
	xs, out := randBatch(rng, net, 20)
	net.ForwardBatchInto(out, net.NewScratch(), xs)
	for r, x := range xs {
		want := net.Forward(x)
		for i := range want {
			diff := math.Abs(out[r][i] - want[i])
			tol := 1e-10 * math.Max(1, math.Abs(want[i]))
			if diff > tol {
				t.Fatalf("row %d output %d: |%v - %v| = %v > %v", r, i, out[r][i], want[i], diff, tol)
			}
		}
	}
}

// TestForwardIntoDeterministic demands identical bits across 100 runs.
func TestForwardIntoDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	net := New(Config{
		Name: "det", InputDim: 33, Hidden: []int{40, 40}, OutputDim: 7,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
	x := randInput(rng, net.InputDim())
	scratch := net.NewScratch()
	first := forwardOne(net, scratch, x)
	for run := 1; run < 100; run++ {
		dst := forwardOne(net, scratch, x)
		for i := range dst {
			if dst[i] != first[i] {
				t.Fatalf("run %d output %d: %x != %x", run, i, dst[i], first[i])
			}
		}
	}
}

// TestPackedWriteThrough pins the aliasing contract: after packing,
// in-place mutation through W (the trainer's and quantizer's access
// path) is visible to the serving kernels without a re-pack, and a
// wholesale row replacement triggers the lazy re-pack.
func TestPackedWriteThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	net := New(Config{
		Name: "wt", InputDim: 4, Hidden: []int{5}, OutputDim: 2,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
	x := randInput(rng, 4)
	sameBits := func(n *Network, x []float64, msg string) {
		t.Helper()
		got, want := forwardOne(n, n.NewScratch(), x), servingReference(n, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatal(msg)
			}
		}
	}
	// In-place element write through W.
	net.Layers[0].W[2][1] = 7.5
	sameBits(net, x, "in-place W write not visible to serving kernels")
	// Wholesale row replacement breaks the alias; packed() must re-pack.
	net.Layers[0].W[0] = []float64{1, 2, 3, 4}
	sameBits(net, x, "row replacement not picked up by lazy re-pack")
	// A layer built literally (never packed) must also serve correctly.
	lit := &Network{Layers: []*Layer{{W: [][]float64{{1, 0.5}, {-1, 2}}, B: []float64{0.1, -0.2}, Act: ReLU}}}
	sameBits(lit, []float64{0.3, 0.7}, "literal-built layer serving mismatch")
}

func TestForwardIntoDoesNotWriteInput(t *testing.T) {
	net := testNet(t, []int{6, 6})
	x := []float64{0.3, -0.7, 1.1}
	orig := append([]float64(nil), x...)
	forwardOne(net, net.NewScratch(), x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("the serving forward mutated its input: %v -> %v", orig, x)
		}
	}
}

// TestForwardIntoZeroAllocs: a batch of one costs no allocation once the
// scratch has seen it.
func TestForwardIntoZeroAllocs(t *testing.T) {
	net := testNet(t, []int{16, 16, 16})
	xs := [][]float64{{0.1, 0.2, 0.3}}
	out := [][]float64{make([]float64, net.OutputDim())}
	scratch := net.NewScratch()
	net.ForwardBatchInto(out, scratch, xs) // warm the buffers
	allocs := testing.AllocsPerRun(200, func() {
		net.ForwardBatchInto(out, scratch, xs)
	})
	if allocs != 0 {
		t.Fatalf("a one-row batch allocates %v per op, want 0", allocs)
	}
}

// TestForwardBatchIntoZeroAllocsAndBitIdentity: steady-state batches
// allocate nothing, and a Scratch carries no state between calls — one
// that last served a wider network and a larger batch yields the same
// bits as a fresh one.
func TestForwardBatchIntoZeroAllocsAndBitIdentity(t *testing.T) {
	net := testNet(t, []int{12, 12})
	rng := rand.New(rand.NewSource(3))
	xs, out := randBatch(rng, net, 32)
	scratch := net.NewScratch()
	net.ForwardBatchInto(out, scratch, xs) // warm the batch buffers
	allocs := testing.AllocsPerRun(50, func() {
		net.ForwardBatchInto(out, scratch, xs)
	})
	if allocs != 0 {
		t.Fatalf("ForwardBatchInto allocates %v per batch, want 0", allocs)
	}
	wide := testNet(t, []int{31, 17})
	wxs, wout := randBatch(rng, wide, 50)
	used := new(Scratch)
	wide.ForwardBatchInto(wout, used, wxs)
	again := linalg.NewMatrix(len(xs), net.OutputDim())
	net.ForwardBatchInto(again, used, xs)
	for i := range out {
		for j := range out[i] {
			if again[i][j] != out[i][j] {
				t.Fatalf("row %d differs through a scratch another network used", i)
			}
		}
	}
}

func TestForwardIntoPanicsOnBadShapes(t *testing.T) {
	net := testNet(t, []int{4})
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	good := [][]float64{{1, 2, 3}}
	expectPanic("short dst", func() {
		net.ForwardBatchInto([][]float64{make([]float64, 1)}, net.NewScratch(), good)
	})
	expectPanic("nil scratch", func() {
		net.ForwardBatchInto(linalg.NewMatrix(1, net.OutputDim()), nil, good)
	})
	expectPanic("bad input", func() {
		net.ForwardBatchInto(linalg.NewMatrix(1, net.OutputDim()), net.NewScratch(), [][]float64{{1}})
	})
	expectPanic("batch shape", func() {
		net.ForwardBatchInto(make([][]float64, 2), net.NewScratch(), make([][]float64, 3))
	})
	// A zero Scratch is not a bad shape: it grows on first use.
	net.ForwardBatchInto(linalg.NewMatrix(1, net.OutputDim()), new(Scratch), good)
}

// TestForwardObservedSeesPreActivations: the hook sees every layer's
// pre-activations in serving numerics, compared against the independent
// serving reference layer by layer, and the outputs follow from them.
func TestForwardObservedSeesPreActivations(t *testing.T) {
	net := testNet(t, []int{5, 4})
	xs := [][]float64{{0.4, -0.2, 0.8}, {-1.3, 0.6, 0.1}, {0, 0, 0}}
	preWant := make([][][]float64, len(xs)) // [input][layer][neuron]
	outWant := make([][]float64, len(xs))
	for r, x := range xs {
		cur := x
		for _, l := range net.Layers {
			pre := make([]float64, l.OutDim())
			post := make([]float64, l.OutDim())
			for i, row := range l.W {
				pre[i] = servingDot(row, cur) + l.B[i]
				post[i] = l.Act.Apply(pre[i])
			}
			preWant[r] = append(preWant[r], pre)
			cur = post
		}
		outWant[r] = cur
	}
	out := linalg.NewMatrix(len(xs), net.OutputDim())
	seen := 0
	net.ForwardBatchObserved(out, net.NewScratch(), xs, func(layer int, pre *linalg.Dense) {
		if pre.Rows != len(xs) {
			t.Fatalf("layer %d: %d batch rows, want %d", layer, pre.Rows, len(xs))
		}
		for r := 0; r < pre.Rows; r++ {
			for j, z := range pre.Row(r) {
				if z != preWant[r][layer][j] {
					t.Fatalf("layer %d input %d neuron %d: observed pre %v, want %v", layer, r, j, z, preWant[r][layer][j])
				}
			}
		}
		seen++
	})
	if seen != len(net.Layers) {
		t.Fatalf("observed %d layers, want %d", seen, len(net.Layers))
	}
	for r := range out {
		for i := range out[r] {
			if out[r][i] != outWant[r][i] {
				t.Fatal("observed forward output differs from serving reference")
			}
		}
	}
}

// splitCases are the networks of the batch-split property tests: hidden
// widths that are no multiple of the kernels' blocking factor 4, a
// one-layer net (no hidden layer, no ping-pong), and a tanh hidden layer.
var splitCases = []Config{
	{Name: "odd", InputDim: 7, Hidden: []int{13, 5, 9}, OutputDim: 3, HiddenAct: ReLU, OutputAct: Identity},
	{Name: "one-layer", InputDim: 6, Hidden: nil, OutputDim: 5, HiddenAct: ReLU, OutputAct: Identity},
	{Name: "tanh", InputDim: 3, Hidden: []int{10, 6}, OutputDim: 2, HiddenAct: Tanh, OutputAct: Identity},
}

// TestForwardBatchSplitInvariant is the determinism contract of the one
// serving path: however a 257-row batch is cut into consecutive chunks —
// one row at a time, across the kernels' blocking factors, at the server's
// shard and stride sizes, or whole — every row's output and every observed
// pre-activation has the same bits.
func TestForwardBatchSplitInvariant(t *testing.T) {
	const rows = 257
	rng := rand.New(rand.NewSource(47))
	for _, cfg := range splitCases {
		net := New(cfg, rng)
		xs, _ := randBatch(rng, net, rows)
		// run returns every row's output followed by its pre-activations,
		// layer by layer, for one chunking of xs.
		run := func(chunk int) [][]float64 {
			got := make([][]float64, rows)
			out := linalg.NewMatrix(rows, net.OutputDim())
			sc := net.NewScratch()
			for lo := 0; lo < rows; lo += chunk {
				hi := min(lo+chunk, rows)
				net.ForwardBatchObserved(out[lo:hi], sc, xs[lo:hi], func(_ int, pre *linalg.Dense) {
					for r := 0; r < pre.Rows; r++ {
						got[lo+r] = append(got[lo+r], pre.Row(r)...)
					}
				})
			}
			for r := range got {
				got[r] = append(out[r], got[r]...)
			}
			return got
		}
		want := run(rows)
		for _, chunk := range []int{1, 2, 3, 4, 5, 7, 8, 17, 64, 256} {
			got := run(chunk)
			for r := range want {
				if len(got[r]) != len(want[r]) {
					t.Fatalf("%s chunk %d row %d: %d values, want %d", cfg.Name, chunk, r, len(got[r]), len(want[r]))
				}
				for k := range want[r] {
					if math.Float64bits(got[r][k]) != math.Float64bits(want[r][k]) {
						t.Fatalf("%s chunk %d row %d value %d: %x, whole batch %x", cfg.Name, chunk, r, k, got[r][k], want[r][k])
					}
				}
			}
		}
	}
}

// TestForwardBatchHandComputed pins both numerics to a case small enough
// to do on paper: 2 inputs → 3 ReLU neurons → 1 linear output.
//
//	x = (1, 2):    pre = (0.5·1 − 1·2 + 0.25, 2·1 + 0.5·2 − 1, −1·1 + 1·2) = (−1.25, 2, 1)
//	               y = 3·0 − 2·2 + 0.5·1 + 0.125 = −3.375
//	x = (−2, 0.5): pre = (−1 − 0.5 + 0.25, −4 + 0.25 − 1, 2 + 0.5) = (−1.25, −4.75, 2.5)
//	               y = 0.5·2.5 + 0.125 = 1.375
func TestForwardBatchHandComputed(t *testing.T) {
	net := &Network{Layers: []*Layer{
		{W: [][]float64{{0.5, -1}, {2, 0.5}, {-1, 1}}, B: []float64{0.25, -1, 0}, Act: ReLU},
		{W: [][]float64{{3, -2, 0.5}}, B: []float64{0.125}, Act: Identity},
	}}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{1, 2}, {-2, 0.5}}
	want := []float64{-3.375, 1.375}
	preWant := [][]float64{{-1.25, 2, 1}, {-1.25, -4.75, 2.5}}
	out := linalg.NewMatrix(2, 1)
	net.ForwardBatchObserved(out, new(Scratch), xs, func(layer int, pre *linalg.Dense) {
		if layer != 0 {
			return
		}
		for r := range preWant {
			for j, w := range preWant[r] {
				if math.Abs(pre.Row(r)[j]-w) > 1e-12 {
					t.Fatalf("input %d neuron %d: pre-activation %v, by hand %v", r, j, pre.Row(r)[j], w)
				}
			}
		}
	})
	for r, x := range xs {
		if got := net.Forward(x)[0]; math.Abs(got-want[r]) > 1e-12 {
			t.Fatalf("Forward(%v) = %v, by hand %v", x, got, want[r])
		}
		if math.Abs(out[r][0]-want[r]) > 1e-12 {
			t.Fatalf("ForwardBatchInto(%v) = %v, by hand %v", x, out[r][0], want[r])
		}
	}
}

// BenchmarkForwardBatchInto measures the layer-major batched path on a
// 64-input batch; ns/op is per batch (divide by 64 for per-input cost).
func BenchmarkForwardBatchInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := New(Config{
		Name: "bench", InputDim: 84, Hidden: []int{40, 40, 40, 40}, OutputDim: 15,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
	xs := make([][]float64, 64)
	out := make([][]float64, 64)
	for i := range xs {
		xs[i] = randInput(rng, net.InputDim())
		out[i] = make([]float64, net.OutputDim())
	}
	scratch := net.NewScratch()
	net.ForwardBatchInto(out, scratch, xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatchInto(out, scratch, xs)
	}
}

// BenchmarkForward measures the allocating reference path for comparison.
func BenchmarkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := New(Config{
		Name: "bench", InputDim: 84, Hidden: []int{40, 40, 40, 40}, OutputDim: 15,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
	x := randInput(rng, net.InputDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}
