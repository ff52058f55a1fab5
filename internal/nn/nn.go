// Package nn implements the feedforward networks used by the motion
// predictor case study: fully connected layers with ReLU, tanh or identity
// activations, a forward pass that can record every neuron's pre- and
// post-activation value (needed by coverage, traceability and verification),
// and JSON serialization.
//
// The package deliberately contains no training code; see package train.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	// Identity applies no nonlinearity (linear output layers).
	Identity Activation = iota
	// ReLU is max(0, z); the only activation the MILP verifier encodes exactly.
	ReLU
	// Tanh is the smooth saturating activation discussed in the paper's
	// MC/DC argument (one test case satisfies MC/DC as there is no branch).
	Tanh
)

// String returns the conventional lowercase name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

// Apply evaluates the activation at z.
func (a Activation) Apply(z float64) float64 {
	switch a {
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	case Tanh:
		return math.Tanh(z)
	default:
		return z
	}
}

// applyInPlace applies the activation to every element of out. The
// serving hot loops use it instead of per-element Apply calls: the
// switch runs once per layer and each case is a tight branch-free-ish
// loop the compiler can keep in registers.
func (a Activation) applyInPlace(out []float64) {
	switch a {
	case ReLU:
		for i, z := range out {
			if z < 0 {
				out[i] = 0
			}
		}
	case Tanh:
		for i, z := range out {
			out[i] = math.Tanh(z)
		}
	}
}

// Derivative returns dApply/dz at pre-activation z.
func (a Activation) Derivative(z float64) float64 {
	switch a {
	case ReLU:
		if z < 0 {
			return 0
		}
		return 1
	case Tanh:
		th := math.Tanh(z)
		return 1 - th*th
	default:
		return 1
	}
}

// Layer is one dense layer: out = act(W·in + b).
//
// The serving kernels read the weights through a packed flat matrix
// (see packed); after packing, the rows of W alias the packed backing
// array, so in-place mutation through W — the trainer's SGD steps, the
// quantizer's rounding — writes both representations at once and no
// explicit re-sync is needed.
type Layer struct {
	W   [][]float64 `json:"w"` // outDim × inDim
	B   []float64   `json:"b"` // outDim
	Act Activation  `json:"act"`

	dense *linalg.Dense // flat row-major W for the serving kernels
}

// PackedLayer returns the layer act(W·in + b) whose weights are the r×c
// row-major matrix data, adopted as its flat serving matrix without a
// copy: the rows of W are cut from data, so the layer is packed. It
// panics unless len(data) == r*c.
func PackedLayer(data []float64, r, c int, b []float64, act Activation) *Layer {
	if r < 0 || c < 0 || len(data) != r*c {
		panic(fmt.Sprintf("nn: PackedLayer of %d values as %dx%d", len(data), r, c))
	}
	l := &Layer{W: make([][]float64, r), B: b, Act: act, dense: &linalg.Dense{Rows: r, Cols: c, Data: data}}
	for i := range l.W {
		l.W[i] = data[i*c : (i+1)*c : (i+1)*c]
	}
	return l
}

// Pack builds the layer's flat serving matrix and re-points the rows of
// W into its backing array (write-through aliasing). Construction and
// every decoder (Decode, vnn.UnmarshalNetwork) call it eagerly, or build
// the layer packed; packed() re-packs lazily when a layer was built
// literally or a whole row of W was replaced.
func (l *Layer) Pack() {
	d := linalg.DenseFromRows(l.W)
	c := d.Cols
	for i := range l.W {
		l.W[i] = d.Data[i*c : (i+1)*c : (i+1)*c]
	}
	l.dense = d
}

// synced reports whether the packed matrix still aliases every row of W.
// A row-pointer comparison per row is cheap next to any matvec; it
// catches layers built as literals and code that replaced a row slice
// (in-place element writes keep the alias and need no re-pack).
func (l *Layer) synced() bool {
	d := l.dense
	if d == nil || d.Rows != len(l.W) {
		return false
	}
	c := d.Cols
	for i, row := range l.W {
		if len(row) != c {
			return false
		}
		if c > 0 && &row[0] != &d.Data[i*c] {
			return false
		}
	}
	return true
}

// packed returns the layer's flat serving matrix, repacking if W was
// rebound since the last pack.
func (l *Layer) packed() *linalg.Dense {
	if !l.synced() {
		l.Pack()
	}
	return l.dense
}

// InDim returns the layer's input width.
func (l *Layer) InDim() int {
	if len(l.W) == 0 {
		return 0
	}
	return len(l.W[0])
}

// OutDim returns the layer's output width.
func (l *Layer) OutDim() int { return len(l.W) }

// Network is a feedforward network with named inputs and outputs.
type Network struct {
	Name        string   `json:"name"`
	InputNames  []string `json:"input_names,omitempty"`
	OutputNames []string `json:"output_names,omitempty"`
	Layers      []*Layer `json:"layers"`
}

// Config describes a network to construct.
type Config struct {
	Name        string
	InputDim    int
	Hidden      []int // widths of hidden layers
	OutputDim   int
	HiddenAct   Activation // activation of every hidden layer
	OutputAct   Activation // activation of the output layer
	InputNames  []string   // optional; length InputDim when set
	OutputNames []string   // optional; length OutputDim when set
}

// New builds a network with He-style initialization drawn from rng.
// A nil rng panics; callers own their randomness for reproducibility.
func New(cfg Config, rng *rand.Rand) *Network {
	if rng == nil {
		panic("nn: New requires a non-nil rng")
	}
	if cfg.InputDim <= 0 || cfg.OutputDim <= 0 {
		panic(fmt.Sprintf("nn: New dims %d -> %d", cfg.InputDim, cfg.OutputDim))
	}
	dims := append([]int{cfg.InputDim}, cfg.Hidden...)
	dims = append(dims, cfg.OutputDim)
	net := &Network{
		Name:        cfg.Name,
		InputNames:  append([]string(nil), cfg.InputNames...),
		OutputNames: append([]string(nil), cfg.OutputNames...),
	}
	for i := 0; i+1 < len(dims); i++ {
		in, out := dims[i], dims[i+1]
		act := cfg.HiddenAct
		if i == len(dims)-2 {
			act = cfg.OutputAct
		}
		scale := math.Sqrt(2.0 / float64(in)) // He init, suited to ReLU
		l := &Layer{W: linalg.NewMatrix(out, in), B: make([]float64, out), Act: act}
		for r := 0; r < out; r++ {
			for c := 0; c < in; c++ {
				l.W[r][c] = rng.NormFloat64() * scale
			}
		}
		l.Pack()
		net.Layers = append(net.Layers, l)
	}
	return net
}

// Pack eagerly builds every layer's flat serving matrix. New, Decode and
// Clone call it; a network built from layer literals must be packed (or
// forwarded once from a single goroutine) before concurrent serving,
// because the lazy re-pack inside the forward pass is not synchronized.
func (n *Network) Pack() {
	for _, l := range n.Layers {
		l.Pack()
	}
}

// InputDim returns the network's input width.
func (n *Network) InputDim() int {
	if len(n.Layers) == 0 {
		return 0
	}
	return n.Layers[0].InDim()
}

// OutputDim returns the network's output width.
func (n *Network) OutputDim() int {
	if len(n.Layers) == 0 {
		return 0
	}
	return n.Layers[len(n.Layers)-1].OutDim()
}

// HiddenNeurons counts neurons in all hidden (non-output) layers.
func (n *Network) HiddenNeurons() int {
	total := 0
	for i := 0; i+1 < len(n.Layers); i++ {
		total += n.Layers[i].OutDim()
	}
	return total
}

// Validate checks structural consistency: layer widths chain, bias lengths
// match, names (when present) match dimensions, weights are finite.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return errors.New("nn: network has no layers")
	}
	for i, l := range n.Layers {
		if l == nil {
			return fmt.Errorf("nn: layer %d is null", i)
		}
	}
	prev := n.Layers[0].InDim()
	for i, l := range n.Layers {
		if l.InDim() != prev {
			return fmt.Errorf("nn: layer %d expects %d inputs, previous layer provides %d", i, l.InDim(), prev)
		}
		if len(l.B) != l.OutDim() {
			return fmt.Errorf("nn: layer %d has %d biases for %d neurons", i, len(l.B), l.OutDim())
		}
		for j, row := range l.W {
			if len(row) != l.InDim() {
				return fmt.Errorf("nn: layer %d neuron %d has %d weights, neuron 0 has %d", i, j, len(row), l.InDim())
			}
			if !linalg.AllFinite(row) {
				return fmt.Errorf("nn: layer %d has non-finite weights", i)
			}
		}
		if !linalg.AllFinite(l.B) {
			return fmt.Errorf("nn: layer %d has non-finite biases", i)
		}
		prev = l.OutDim()
	}
	if len(n.InputNames) != 0 && len(n.InputNames) != n.InputDim() {
		return fmt.Errorf("nn: %d input names for %d inputs", len(n.InputNames), n.InputDim())
	}
	if len(n.OutputNames) != 0 && len(n.OutputNames) != n.OutputDim() {
		return fmt.Errorf("nn: %d output names for %d outputs", len(n.OutputNames), n.OutputDim())
	}
	return nil
}

// Forward evaluates the network at x and returns the raw output vector,
// using the reference numerics: one sequential linalg.Dot per neuron.
// This is the accumulation order the verifier, trainer, quantizer and
// every certification analysis are pinned to; it never changes. The
// serving path (ForwardBatchInto) uses the blocked kernels, whose
// outputs agree with Forward to within the tolerance documented there.
// It panics if len(x) != InputDim().
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.InputDim() {
		panic(fmt.Sprintf("nn: Forward input dim %d, want %d", len(x), n.InputDim()))
	}
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

// Scratch is the caller-owned state of the allocation-free serving
// forwards. It holds buffers only, so the zero value is ready to use and
// one Scratch serves networks of any shape: the buffers grow to the
// largest batch × width seen and are then reused (zero steady-state
// allocations). A Scratch must not be used by two goroutines at once;
// servers keep one per worker.
type Scratch struct {
	// batch[0]/batch[1] are the ping-pong matrices of the layer loop.
	batch [2][]float64
	// dm holds the two Dense headers over batch[0]/batch[1]; keeping
	// them here (rather than as locals) stops the header passed to the
	// observe hook from escaping to the heap on every layer.
	dm [2]linalg.Dense
}

// NewScratch returns an empty Scratch; its buffers grow on first use.
func (n *Network) NewScratch() *Scratch { return new(Scratch) }

// maxDim returns the widest vector the forward pass touches: input,
// every hidden width, and output.
func (n *Network) maxDim() int {
	m := n.InputDim()
	for _, l := range n.Layers {
		if d := l.OutDim(); d > m {
			m = d
		}
	}
	return m
}

// ForwardBatchInto is the serving forward pass: it evaluates the network
// at every row of xs, writing row i's output into out[i]; a single input
// is a batch of one. All intermediate values live in the caller's
// Scratch, so a steady-state caller — the inference server's hot path —
// performs zero allocations per batch, and xs is never written.
//
// The pass runs the blocked serving kernels layer-major (linalg.MatMulTB
// streams each weight row across the whole batch). Every output cell is
// accumulated in one fixed order whatever the batch size, so the result
// is batch-split invariant: any division of xs into consecutive batches
// yields the same bits, run after run, across GOMAXPROCS and across the
// assembly/pure-Go kernel paths. That order differs from Forward's
// reference numerics; the two agree to within ~n ULPs of the accumulated
// magnitude per neuron (see linalg's TestMatVecMatchesDotWithinTolerance
// and DESIGN.md "Kernel layer").
//
// It panics with sized messages when sc is nil, out and xs differ in
// length, a row of xs is not InputDim() long or a row of out is not
// OutputDim() long.
func (n *Network) ForwardBatchInto(out [][]float64, sc *Scratch, xs [][]float64) {
	n.ForwardBatchObserved(out, sc, xs, nil)
}

// ForwardBatchObserved is ForwardBatchInto with the monitor hook: when
// observe is non-nil it is called once per layer with the batch's
// pre-activation matrix (row i = input i), after the bias add and before
// the activation overwrites it in place. The matrix passed to observe is
// scratch memory, valid only for the duration of the call and not to be
// written. The runtime monitor reads activation signs this way, in the
// same pass that produces the predictions.
func (n *Network) ForwardBatchObserved(out [][]float64, sc *Scratch, xs [][]float64, observe func(layer int, pre *linalg.Dense)) {
	if len(out) != len(xs) {
		panic(fmt.Sprintf("nn: ForwardBatchInto %d output rows for %d inputs", len(out), len(xs)))
	}
	if sc == nil {
		panic("nn: ForwardBatchInto nil scratch (use Network.NewScratch)")
	}
	batch := len(xs)
	if batch == 0 {
		return
	}
	in := n.InputDim()
	outDim := n.OutputDim()
	for i, x := range xs {
		if len(x) != in {
			panic(fmt.Sprintf("nn: ForwardBatchInto input %d dim %d, want %d", i, len(x), in))
		}
		if len(out[i]) != outDim {
			panic(fmt.Sprintf("nn: ForwardBatchInto output row %d dim %d, want %d", i, len(out[i]), outDim))
		}
	}
	need := batch * n.maxDim()
	for b := range sc.batch {
		if cap(sc.batch[b]) < need {
			sc.batch[b] = make([]float64, need)
		}
	}
	sc.dm[0] = linalg.Dense{Rows: batch, Cols: in, Data: sc.batch[0][:batch*in]}
	cur := &sc.dm[0]
	for i, x := range xs {
		copy(cur.Data[i*in:(i+1)*in], x)
	}
	flip := 1
	for li, l := range n.Layers {
		w := l.packed()
		sc.dm[flip] = linalg.Dense{Rows: batch, Cols: l.OutDim(), Data: sc.batch[flip][:batch*l.OutDim()]}
		next := &sc.dm[flip]
		linalg.MatMulTB(next, cur, w)
		next.AddBias(l.B)
		if observe != nil {
			observe(li, next)
		}
		l.Act.applyInPlace(next.Data)
		cur, flip = next, flip^1
	}
	for i := range out {
		copy(out[i], cur.Data[i*outDim:(i+1)*outDim])
	}
}

// Trace records every layer's pre- and post-activation values for one input.
type Trace struct {
	Input []float64
	// Pre[i][j] is neuron j of layer i before activation; Post after.
	Pre  [][]float64
	Post [][]float64
}

// Output returns the network output recorded in the trace.
func (tr *Trace) Output() []float64 {
	if len(tr.Post) == 0 {
		return nil
	}
	return tr.Post[len(tr.Post)-1]
}

// ForwardTrace evaluates the network recording every neuron value.
func (n *Network) ForwardTrace(x []float64) *Trace {
	if len(x) != n.InputDim() {
		panic(fmt.Sprintf("nn: ForwardTrace input dim %d, want %d", len(x), n.InputDim()))
	}
	tr := &Trace{
		Input: linalg.Clone(x),
		Pre:   make([][]float64, len(n.Layers)),
		Post:  make([][]float64, len(n.Layers)),
	}
	cur := x
	for li, l := range n.Layers {
		pre := make([]float64, l.OutDim())
		post := make([]float64, l.OutDim())
		for i, row := range l.W {
			pre[i] = linalg.Dot(row, cur) + l.B[i]
			post[i] = l.Act.Apply(pre[i])
		}
		tr.Pre[li], tr.Post[li] = pre, post
		cur = post
	}
	return tr
}

// ReLULayers lists the indices of the hidden ReLU layers — the layers
// that branch, and therefore the layers activation patterns, structural
// coverage and the runtime monitor are defined over. The output layer is
// excluded even when it is ReLU (it does not feed a later decision).
func (n *Network) ReLULayers() []int {
	var out []int
	for i := 0; i+1 < len(n.Layers); i++ {
		if n.Layers[i].Act == ReLU {
			out = append(out, i)
		}
	}
	return out
}

// ActivationPattern returns, for every hidden ReLU layer (in ReLULayers
// order), which neurons are active (pre-activation strictly > 0) at input
// x. Non-ReLU hidden layers do not branch and are excluded; a network
// with no hidden ReLU layer (e.g. single-layer or all-tanh) returns no
// rows. A pre-activation of exactly zero counts as inactive, matching the
// verifier's encoding of the ReLU's flat branch.
func (n *Network) ActivationPattern(x []float64) [][]bool {
	tr := n.ForwardTrace(x)
	layers := n.ReLULayers()
	out := make([][]bool, 0, len(layers))
	for _, li := range layers {
		row := make([]bool, len(tr.Pre[li]))
		for j, z := range tr.Pre[li] {
			row[j] = z > 0
		}
		out = append(out, row)
	}
	return out
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	out := &Network{
		Name:        n.Name,
		InputNames:  append([]string(nil), n.InputNames...),
		OutputNames: append([]string(nil), n.OutputNames...),
	}
	for _, l := range n.Layers {
		cl := &Layer{
			W:   linalg.CloneMatrix(l.W),
			B:   linalg.Clone(l.B),
			Act: l.Act,
		}
		cl.Pack()
		out.Layers = append(out.Layers, cl)
	}
	return out
}

// ArchString renders the architecture like "I4x25" for 4 hidden layers of
// width 25 (the notation used in the paper's Table II), falling back to an
// explicit size list for non-uniform hidden layers.
func (n *Network) ArchString() string {
	if len(n.Layers) < 2 {
		return fmt.Sprintf("I0 (%d->%d)", n.InputDim(), n.OutputDim())
	}
	width := n.Layers[0].OutDim()
	uniform := true
	for i := 0; i+1 < len(n.Layers); i++ {
		if n.Layers[i].OutDim() != width {
			uniform = false
			break
		}
	}
	if uniform {
		return fmt.Sprintf("I%dx%d", len(n.Layers)-1, width)
	}
	s := "I["
	for i := 0; i+1 < len(n.Layers); i++ {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(n.Layers[i].OutDim())
	}
	return s + "]"
}
