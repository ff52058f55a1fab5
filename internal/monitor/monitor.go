// Package monitor implements runtime monitoring of neural networks via
// activation patterns — the paper's operation-time pillar: certification
// does not end when a property is proved, because a proof quantifies over
// the design domain while operation feeds the network whatever the world
// produces. The monitor closes that gap by remembering, per hidden ReLU
// layer, the set of activation patterns the training/coverage dataset
// exercised; at inference time an input whose pattern is farther than a
// Hamming relaxation γ from every remembered pattern is flagged as
// out-of-pattern before its prediction is trusted.
//
// Two properties make the monitor a certification artifact rather than a
// heuristic:
//
//   - Static cross-check: building against the verifier's proven
//     pre-activation bounds rejects any dataset pattern that interval
//     analysis proves unreachable over the certified input region (a
//     neuron recorded active although its pre-activation provably stays
//     ≤ 0, or vice versa). Such patterns come from inputs outside the
//     region — admitting them would teach the monitor behaviour the
//     certificate never covered.
//
//   - Bit-determinism: pattern sets are ordered by first insertion,
//     distances are exact integer Hamming distances, and verdicts depend
//     only on (network, dataset order, options) — the same build on two
//     machines yields byte-identical marshals and fingerprints, and the
//     same input always yields the same verdict.
//
// There is one monitored forward pass, CheckBatchInto (a single input is
// a batch of one): it fuses the pattern check into nn.ForwardBatchObserved,
// so one pass produces both the predictions and the verdicts using only
// caller-provided scratch, allocation-free in steady state. Build runs the
// dataset through that same pass.
package monitor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"

	"repro/internal/bounds"
	"repro/internal/linalg"
	"repro/internal/nn"
)

// Version tags the canonical marshal layout and fingerprint preimage.
const Version = 1

// Options tune a monitor build.
type Options struct {
	// Gamma is the Hamming relaxation: a pattern within distance Gamma of
	// any remembered pattern (per monitored layer) is accepted. 0 means
	// exact-match monitoring.
	Gamma int
	// Layers selects which hidden ReLU layers to monitor, by network
	// layer index; nil or empty means all of them (the two must behave
	// identically — wire decoders produce empty non-nil slices).
	Layers []int
}

// Verdict is the outcome of one runtime check. It is bit-deterministic:
// the same monitor and input always produce the same verdict.
type Verdict struct {
	// OK reports whether every monitored layer's pattern lies within the
	// monitor's Hamming relaxation of a remembered pattern.
	OK bool
	// Layer is the network layer index the Distance refers to: on
	// rejection, the first monitored layer whose distance exceeded γ; on
	// acceptance, the layer with the largest (still admissible) distance.
	Layer int
	// Distance is the Hamming distance from the observed pattern to the
	// nearest remembered pattern of Layer.
	Distance int
}

// String renders the verdict ("ok" or "out-of-pattern(layer=2, distance=5)").
func (v Verdict) String() string {
	if v.OK {
		return "ok"
	}
	return fmt.Sprintf("out-of-pattern(layer=%d, distance=%d)", v.Layer, v.Distance)
}

// BuildStats reports what a build did.
type BuildStats struct {
	// Inputs is the number of dataset rows scored.
	Inputs int
	// Rejected counts inputs whose activation pattern the static
	// cross-check proved unreachable over the compiled region.
	Rejected int
	// Patterns is the number of distinct stored patterns per monitored
	// layer, in Layers order.
	Patterns []int
}

// patternSet is the remembered pattern collection of one monitored layer.
// Patterns live twice: as bytes (canonical marshal form and exact-match
// map keys) and flattened into one contiguous []uint64 (the XOR/popcount
// distance scan reads 64 neurons per op, patterns packed back to back so
// the whole scan is one linear walk).
type patternSet struct {
	neurons int
	nbytes  int
	nwords  int
	index   map[string]int // exact-match lookup; value = insertion position
	pats    [][]byte       // insertion order (determinism + marshal)
	words   []uint64       // pattern p occupies words[p*nwords:(p+1)*nwords]
}

func newPatternSet(neurons int) *patternSet {
	return &patternSet{
		neurons: neurons,
		nbytes:  (neurons + 7) / 8,
		nwords:  (neurons + 63) / 64,
		index:   make(map[string]int),
	}
}

// wordsOf packs the byte bitset into dst (little-endian: neuron j is bit
// j%64 of word j/64, consistent with bit j%8 of byte j/8).
func wordsOf(dst []uint64, pat []byte) {
	for j := range dst {
		dst[j] = 0
	}
	for i, b := range pat {
		dst[i/8] |= uint64(b) << (8 * (i % 8))
	}
}

// add inserts the pattern unless present. The bytes are copied.
func (ps *patternSet) add(pat []byte) bool {
	if _, ok := ps.index[string(pat)]; ok {
		return false
	}
	cp := append([]byte(nil), pat...)
	ps.index[string(cp)] = len(ps.pats)
	ps.pats = append(ps.pats, cp)
	ps.words = append(ps.words, make([]uint64, ps.nwords)...)
	wordsOf(ps.words[len(ps.words)-ps.nwords:], cp)
	return true
}

// row returns input i's pattern within a batch pattern buffer of this set.
func (ps *patternSet) row(buf []byte, i int) []byte {
	return buf[i*ps.nbytes : (i+1)*ps.nbytes]
}

// distance returns the Hamming distance from pat to the nearest stored
// pattern, or neurons+1 when the set is empty. Exact matches short-circuit
// through the index (the common case on in-distribution traffic) without
// allocating: a map lookup keyed by string(pat) does not copy. w is
// caller scratch for the word form of pat (filled only on an exact
// miss); the fallback scan XOR/popcounts it against the flattened stored
// words, eight words (512 neurons) per early-exit check.
func (ps *patternSet) distance(pat []byte, w []uint64) int {
	if _, ok := ps.index[string(pat)]; ok {
		return 0
	}
	wordsOf(w, pat)
	best := ps.neurons + 1
	nw := ps.nwords
	for p := 0; p < len(ps.pats); p++ {
		stored := ps.words[p*nw : (p+1)*nw]
		d, j := 0, 0
		for ; j+8 <= nw && d < best; j += 8 {
			s := stored[j : j+8 : j+8]
			q := w[j : j+8 : j+8]
			d += bits.OnesCount64(s[0]^q[0]) + bits.OnesCount64(s[1]^q[1]) +
				bits.OnesCount64(s[2]^q[2]) + bits.OnesCount64(s[3]^q[3]) +
				bits.OnesCount64(s[4]^q[4]) + bits.OnesCount64(s[5]^q[5]) +
				bits.OnesCount64(s[6]^q[6]) + bits.OnesCount64(s[7]^q[7])
		}
		if d < best {
			for ; j < nw; j++ {
				d += bits.OnesCount64(stored[j] ^ w[j])
			}
			if d < best {
				best = d
			}
		}
	}
	return best
}

// Monitor is an immutable activation-pattern monitor bound to one
// network. It is safe for concurrent use: checks only read the pattern
// sets (per-call state lives in the caller's BatchScratch).
type Monitor struct {
	net    *nn.Network
	gamma  int
	layers []int // monitored network layer indices, ascending
	slot   []int // layer index -> position in layers, -1 when unmonitored
	sets   []*patternSet
	stats  BuildStats
}

// buildChunk is how many dataset rows Build sends through the serving
// pass at once.
const buildChunk = 64

// Build constructs a monitor for net from the activation patterns the
// dataset exercises. preBounds, when non-nil, are the proven
// pre-activation intervals of every hidden layer (one row per hidden
// layer, e.g. a compiled network's PreActivationBounds); patterns they
// prove unreachable are rejected. A nil preBounds skips the static
// cross-check (no certificate to be consistent with).
//
// The build is deterministic: the same (net, data order, opts) produces
// identical pattern sets, marshals and fingerprints.
func Build(net *nn.Network, data [][]float64, preBounds [][]bounds.Interval, opts Options) (*Monitor, error) {
	if opts.Gamma < 0 {
		return nil, fmt.Errorf("monitor: gamma %d is negative", opts.Gamma)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("monitor: build needs at least one dataset input")
	}
	relu := net.ReLULayers()
	layers := opts.Layers
	if len(layers) == 0 {
		layers = relu
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("monitor: network %q has no hidden ReLU layer to monitor", net.Name)
	}
	isReLU := make(map[int]bool, len(relu))
	for _, li := range relu {
		isReLU[li] = true
	}
	m := &Monitor{
		net:    net,
		gamma:  opts.Gamma,
		layers: append([]int(nil), layers...),
		slot:   make([]int, len(net.Layers)),
	}
	for i := range m.slot {
		m.slot[i] = -1
	}
	prev := -1
	for s, li := range m.layers {
		if !isReLU[li] {
			return nil, fmt.Errorf("monitor: layer %d is not a hidden ReLU layer", li)
		}
		if li <= prev {
			return nil, fmt.Errorf("monitor: layers must be strictly ascending, got %v", m.layers)
		}
		prev = li
		m.slot[li] = s
		m.sets = append(m.sets, newPatternSet(net.Layers[li].OutDim()))
	}
	if preBounds != nil {
		for _, li := range m.layers {
			if li >= len(preBounds) || len(preBounds[li]) != net.Layers[li].OutDim() {
				return nil, fmt.Errorf("monitor: pre-activation bounds missing layer %d", li)
			}
		}
	}

	dim := net.InputDim()
	for i, x := range data {
		if len(x) != dim {
			return nil, fmt.Errorf("monitor: data row %d has dimension %d, network input %d", i, len(x), dim)
		}
	}
	// The dataset goes through the serving pass itself, a chunk at a time;
	// batch-split invariance makes the chunk size unobservable, and rows
	// are admitted in dataset order, so insertion order is the dataset's.
	var sc BatchScratch
	dst := linalg.NewMatrix(min(buildChunk, len(data)), net.OutputDim())
	m.stats.Inputs = len(data)
	for lo := 0; lo < len(data); lo += buildChunk {
		xs := data[lo:min(lo+buildChunk, len(data))]
		m.observeBatch(dst[:len(xs)], &sc, xs)
		for i := range xs {
			if preBounds != nil && m.unreachable(&sc, i, preBounds) {
				m.stats.Rejected++
				continue
			}
			for s, set := range m.sets {
				set.add(set.row(sc.pat[s], i))
			}
		}
	}
	m.stats.Patterns = make([]int, len(m.sets))
	total := 0
	for s, set := range m.sets {
		m.stats.Patterns[s] = len(set.pats)
		total += len(set.pats)
	}
	if total == 0 {
		return nil, fmt.Errorf("monitor: every dataset pattern was rejected as statically unreachable (%d inputs)", m.stats.Inputs)
	}
	return m, nil
}

// unreachable reports whether the pattern of input i of the batch held in
// sc contradicts the proven pre-activation bounds: a neuron recorded
// active although its interval proves z ≤ 0 everywhere in the region, or
// recorded inactive although the interval proves z > 0.
func (m *Monitor) unreachable(sc *BatchScratch, i int, preBounds [][]bounds.Interval) bool {
	for s, li := range m.layers {
		pat := m.sets[s].row(sc.pat[s], i)
		for j, iv := range preBounds[li] {
			active := pat[j/8]&(1<<(j%8)) != 0
			if active && iv.Hi <= 0 {
				return true
			}
			if !active && iv.Lo > 0 {
				return true
			}
		}
	}
	return false
}

// Net returns the monitored network.
func (m *Monitor) Net() *nn.Network { return m.net }

// Gamma returns the Hamming relaxation.
func (m *Monitor) Gamma() int { return m.gamma }

// Layers returns the monitored network layer indices.
func (m *Monitor) Layers() []int { return append([]int(nil), m.layers...) }

// Stats returns the build statistics.
func (m *Monitor) Stats() BuildStats {
	st := m.stats
	st.Patterns = append([]int(nil), m.stats.Patterns...)
	return st
}

// PatternCount returns the total number of stored patterns across layers.
func (m *Monitor) PatternCount() int {
	n := 0
	for _, set := range m.sets {
		n += len(set.pats)
	}
	return n
}

// Check classifies one input as a batch of one, allocating its own
// transient state — the convenience form for tests and offline use.
func (m *Monitor) Check(x []float64) Verdict {
	var v [1]Verdict
	m.CheckBatchInto(linalg.NewMatrix(1, m.net.OutputDim()), new(BatchScratch), [][]float64{x}, v[:])
	return v[0]
}

// BatchScratch is the per-goroutine state of the serving path: the
// forward scratch plus per-layer pattern buffers for a whole batch. It
// holds buffers only — the zero value is ready to use and one
// BatchScratch serves any monitor over any network — which grow to the
// largest batch seen and are then reused, so steady-state batches
// allocate nothing. A BatchScratch must not be used by two goroutines at
// once.
type BatchScratch struct {
	// Forward is the forward-pass scratch; a lane that also serves
	// unmonitored batches passes it to nn.ForwardBatchInto directly.
	Forward nn.Scratch
	// pat[s] holds the batch's patterns for monitored set s, input i at
	// [i*nbytes, (i+1)*nbytes); wbuf is the shared word-form scratch.
	pat  [][]byte
	wbuf []uint64
}

// observeBatch runs the fused forward pass over xs, leaving the
// predictions in dst and every input's per-layer pattern in sc.pat.
func (m *Monitor) observeBatch(dst [][]float64, sc *BatchScratch, xs [][]float64) {
	batch := len(xs)
	for len(sc.pat) < len(m.sets) {
		sc.pat = append(sc.pat, nil)
	}
	for s, set := range m.sets {
		if cap(sc.pat[s]) < batch*set.nbytes {
			sc.pat[s] = make([]byte, batch*set.nbytes)
		}
		if cap(sc.wbuf) < set.nwords {
			sc.wbuf = make([]uint64, set.nwords)
		}
	}
	m.net.ForwardBatchObserved(dst, &sc.Forward, xs, func(layer int, pre *linalg.Dense) {
		s := m.slot[layer]
		if s < 0 {
			return
		}
		set := m.sets[s]
		buf := sc.pat[s][:batch*set.nbytes]
		clear(buf)
		for i := 0; i < pre.Rows; i++ {
			bs := set.row(buf, i)
			for j, z := range pre.Row(i) {
				if z > 0 {
					bs[j/8] |= 1 << (j % 8)
				}
			}
		}
	})
}

// CheckBatchInto is the serving path: one layer-major forward pass
// (nn.ForwardBatchObserved) produces predictions for every input of the
// batch while the observation hook records all activation patterns; the
// verdicts are then classified in one tight pass over the pattern
// buffers, which amortizes the per-input exact-hit map lookups into a
// single cache-resident scan. Predictions are bit-identical to
// nn.ForwardBatchInto, and both they and the verdicts are batch-split
// invariant: however a stream of inputs is cut into batches, input i gets
// the same bits and the same verdict. dst and verdicts receive input i's
// prediction and verdict; all three slices must be len(xs) long, and each
// dst row OutputDim() long. sc must not be used concurrently.
func (m *Monitor) CheckBatchInto(dst [][]float64, sc *BatchScratch, xs [][]float64, verdicts []Verdict) {
	if len(dst) != len(xs) || len(verdicts) != len(xs) {
		panic(fmt.Sprintf("monitor: CheckBatchInto %d outputs and %d verdicts for %d inputs", len(dst), len(verdicts), len(xs)))
	}
	m.observeBatch(dst, sc, xs)
	for i := range xs {
		verdicts[i] = m.verdict(sc, i)
	}
}

// verdict classifies input i of the batch held in sc.
func (m *Monitor) verdict(sc *BatchScratch, i int) Verdict {
	maxDist, maxLayer := 0, m.layers[0]
	for s, set := range m.sets {
		d := set.distance(set.row(sc.pat[s], i), sc.wbuf[:set.nwords])
		if d > m.gamma {
			return Verdict{OK: false, Layer: m.layers[s], Distance: d}
		}
		if d > maxDist {
			maxDist, maxLayer = d, m.layers[s]
		}
	}
	return Verdict{OK: true, Layer: maxLayer, Distance: maxDist}
}

// layerJSON is the wire form of one monitored layer's pattern set.
type layerJSON struct {
	Layer    int      `json:"layer"`
	Neurons  int      `json:"neurons"`
	Patterns []string `json:"patterns"` // hex bitsets, insertion order
}

// monitorJSON is the canonical wire form of a monitor.
type monitorJSON struct {
	Version  int         `json:"version"`
	Gamma    int         `json:"gamma"`
	Inputs   int         `json:"inputs"`
	Rejected int         `json:"rejected"`
	Layers   []layerJSON `json:"layers"`
}

// Marshal renders the monitor in its canonical JSON form: struct fields in
// declaration order, patterns hex-encoded in insertion order. Two builds
// from the same network, dataset order and options produce byte-identical
// marshals.
func (m *Monitor) Marshal() ([]byte, error) {
	doc := monitorJSON{
		Version:  Version,
		Gamma:    m.gamma,
		Inputs:   m.stats.Inputs,
		Rejected: m.stats.Rejected,
	}
	for s, li := range m.layers {
		lj := layerJSON{Layer: li, Neurons: m.sets[s].neurons, Patterns: make([]string, 0, len(m.sets[s].pats))}
		for _, pat := range m.sets[s].pats {
			lj.Patterns = append(lj.Patterns, hex.EncodeToString(pat))
		}
		doc.Layers = append(doc.Layers, lj)
	}
	return json.Marshal(doc)
}

// Unmarshal reconstructs a monitor from its canonical JSON form, bound to
// net (the marshal does not embed the network; callers pair it with the
// network fingerprint, as the vnn wire layer does).
func Unmarshal(data []byte, net *nn.Network) (*Monitor, error) {
	var doc monitorJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("monitor: unmarshal: %w", err)
	}
	if doc.Version != Version {
		return nil, fmt.Errorf("monitor: unsupported version %d", doc.Version)
	}
	if doc.Gamma < 0 {
		return nil, fmt.Errorf("monitor: gamma %d is negative", doc.Gamma)
	}
	// The build statistics are outside the fingerprint, so nothing
	// downstream can catch a forged count; no build produces these (nor,
	// below, more patterns in a layer than inputs were admitted).
	if doc.Inputs < 0 || doc.Rejected < 0 || doc.Rejected > doc.Inputs {
		return nil, fmt.Errorf("monitor: %d inputs with %d rejected is no build's statistics", doc.Inputs, doc.Rejected)
	}
	if len(doc.Layers) == 0 {
		return nil, fmt.Errorf("monitor: document monitors no layers")
	}
	m := &Monitor{
		net:   net,
		gamma: doc.Gamma,
		slot:  make([]int, len(net.Layers)),
		stats: BuildStats{Inputs: doc.Inputs, Rejected: doc.Rejected},
	}
	for i := range m.slot {
		m.slot[i] = -1
	}
	relu := make(map[int]bool)
	for _, li := range net.ReLULayers() {
		relu[li] = true
	}
	prev := -1
	for _, lj := range doc.Layers {
		if !relu[lj.Layer] {
			return nil, fmt.Errorf("monitor: layer %d is not a hidden ReLU layer of %q", lj.Layer, net.Name)
		}
		if lj.Layer <= prev {
			return nil, fmt.Errorf("monitor: layers out of order at %d", lj.Layer)
		}
		prev = lj.Layer
		if want := net.Layers[lj.Layer].OutDim(); lj.Neurons != want {
			return nil, fmt.Errorf("monitor: layer %d has %d neurons, network %d", lj.Layer, lj.Neurons, want)
		}
		set := newPatternSet(lj.Neurons)
		// Bits beyond the neuron count must be zero: whole-byte XOR/popcount
		// distance scans would otherwise count phantom padding bits, and
		// padded variants of one pattern would dedup as distinct entries.
		var padMask byte
		if r := lj.Neurons % 8; r != 0 {
			padMask = ^byte(0) << r
		}
		for _, h := range lj.Patterns {
			pat, err := hex.DecodeString(h)
			if err != nil {
				return nil, fmt.Errorf("monitor: layer %d pattern %q: %w", lj.Layer, h, err)
			}
			if len(pat) != set.nbytes {
				return nil, fmt.Errorf("monitor: layer %d pattern has %d bytes, want %d", lj.Layer, len(pat), set.nbytes)
			}
			if padMask != 0 && pat[len(pat)-1]&padMask != 0 {
				return nil, fmt.Errorf("monitor: layer %d pattern %q sets bits beyond its %d neurons", lj.Layer, h, lj.Neurons)
			}
			set.add(pat)
		}
		if len(set.pats) > doc.Inputs-doc.Rejected {
			return nil, fmt.Errorf("monitor: layer %d stores %d patterns from %d admitted inputs", lj.Layer, len(set.pats), doc.Inputs-doc.Rejected)
		}
		m.slot[lj.Layer] = len(m.layers)
		m.layers = append(m.layers, lj.Layer)
		m.sets = append(m.sets, set)
		m.stats.Patterns = append(m.stats.Patterns, len(set.pats))
	}
	if m.PatternCount() == 0 {
		return nil, fmt.Errorf("monitor: document holds no patterns")
	}
	return m, nil
}

// Fingerprint returns a content hash of the monitor artifact: version,
// gamma, monitored layers, widths and every stored pattern in insertion
// order. Builds that differ in any admitted pattern — one extra dataset
// input, one γ change — hash differently; identical builds hash
// identically on every machine.
func (m *Monitor) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(Version)
	u64(uint64(m.gamma))
	u64(uint64(len(m.layers)))
	for s, li := range m.layers {
		u64(uint64(li))
		u64(uint64(m.sets[s].neurons))
		u64(uint64(len(m.sets[s].pats)))
		for _, pat := range m.sets[s].pats {
			h.Write(pat)
		}
	}
	return "vnnm1-" + hex.EncodeToString(h.Sum(nil))
}
