package monitor

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/linalg"
	"repro/internal/nn"
)

// signNet is the canonical two-pattern toy: input 1 → hidden ReLU pair
// computing (x, −x) → sum output. Positive inputs exercise pattern 10,
// negative inputs 01, zero 00; 11 is unrealizable.
func signNet() *nn.Network {
	return &nn.Network{Name: "sign", Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
}

func mustBuild(t *testing.T, net *nn.Network, data [][]float64, pre [][]bounds.Interval, opts Options) *Monitor {
	t.Helper()
	m, err := Build(net, data, pre, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randRows draws n rows of dim standard normals scaled by scale.
func randRows(rng *rand.Rand, n, dim int, scale float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * scale
		}
	}
	return rows
}

func TestExactMatchAndGammaRelaxation(t *testing.T) {
	net := signNet()
	m := mustBuild(t, net, [][]float64{{2}}, nil, Options{}) // remembers 10 only
	if v := m.Check([]float64{3}); !v.OK || v.Distance != 0 {
		t.Fatalf("in-pattern input: %v", v)
	}
	// x = 0 has pattern 00: distance 1 from 10.
	if v := m.Check([]float64{0}); v.OK || v.Distance != 1 || v.Layer != 0 {
		t.Fatalf("gamma 0 must flag distance-1 pattern: %v", v)
	}
	// x = -2 has pattern 01: distance 2 from 10.
	if v := m.Check([]float64{-2}); v.OK || v.Distance != 2 {
		t.Fatalf("distance-2 pattern: %v", v)
	}
	relaxed := mustBuild(t, net, [][]float64{{2}}, nil, Options{Gamma: 1})
	if v := relaxed.Check([]float64{0}); !v.OK || v.Distance != 1 {
		t.Fatalf("gamma 1 must accept distance-1 pattern: %v", v)
	}
	if v := relaxed.Check([]float64{-2}); v.OK {
		t.Fatalf("gamma 1 must still flag distance-2 pattern: %v", v)
	}
}

func TestStaticCrossCheckRejectsUnreachablePattern(t *testing.T) {
	net := signNet()
	// Proven bounds for the region x ∈ [1, 3]: neuron 0 stably active
	// (pre ∈ [1, 3]), neuron 1 stably inactive (pre ∈ [−3, −1]).
	pre := [][]bounds.Interval{{{Lo: 1, Hi: 3}, {Lo: -3, Hi: -1}}}
	// The dataset smuggles in x = −2, an input outside the region whose
	// pattern 01 activates the provably-inactive neuron.
	m := mustBuild(t, net, [][]float64{{2}, {-2}, {2.5}}, pre, Options{})
	st := m.Stats()
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1 (the statically-unreachable 01 pattern)", st.Rejected)
	}
	if st.Inputs != 3 || m.PatternCount() != 1 {
		t.Fatalf("stats %+v, patterns %d; want 3 inputs, 1 stored pattern", st, m.PatternCount())
	}
	// The rejected pattern must not have been learned: x = −2 stays flagged.
	if v := m.Check([]float64{-2}); v.OK {
		t.Fatalf("monitor accepted the rejected pattern: %v", v)
	}
	// An all-rejected build fails loudly instead of yielding a monitor
	// that flags everything.
	if _, err := Build(net, [][]float64{{-2}}, pre, Options{}); err == nil {
		t.Fatal("build with every pattern rejected must error")
	}
}

func TestBuildDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := nn.New(nn.Config{Name: "d", InputDim: 4, Hidden: []int{9, 7}, OutputDim: 2, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	data := make([][]float64, 64)
	for i := range data {
		row := make([]float64, 4)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		data[i] = row
	}
	a := mustBuild(t, net, data, nil, Options{Gamma: 1})
	b := mustBuild(t, net, data, nil, Options{Gamma: 1})
	am, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(am, bm) {
		t.Fatal("same dataset produced different marshals")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same dataset produced different fingerprints")
	}
	// Any content difference must change the fingerprint.
	c := mustBuild(t, net, data[:63], nil, Options{Gamma: 1})
	if c.PatternCount() != a.PatternCount() && c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different pattern sets share a fingerprint")
	}
	g := mustBuild(t, net, data, nil, Options{Gamma: 2})
	if g.Fingerprint() == a.Fingerprint() {
		t.Fatal("gamma change did not change the fingerprint")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := nn.New(nn.Config{Name: "r", InputDim: 3, Hidden: []int{8, 5}, OutputDim: 1, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	data := make([][]float64, 40)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	m := mustBuild(t, net, data, nil, Options{Gamma: 1})
	doc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(doc, net)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != m.Fingerprint() {
		t.Fatal("round trip changed the fingerprint")
	}
	if back.Gamma() != m.Gamma() || back.PatternCount() != m.PatternCount() {
		t.Fatal("round trip changed gamma or pattern count")
	}
	for i := 0; i < 20; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if m.Check(x) != back.Check(x) {
			t.Fatalf("round-trip monitor disagrees at %v", x)
		}
	}
	if _, err := Unmarshal([]byte(`{"version":99}`), net); err == nil {
		t.Fatal("unknown version must be rejected")
	}
	if _, err := Unmarshal([]byte(`not json`), net); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestUnmarshalRejectsPaddingBits(t *testing.T) {
	// Layer 0 of signNet has 2 neurons (1 byte, 6 padding bits). "f0"
	// sets bits 4-7 — phantom bits that would inflate every whole-byte
	// Hamming scan.
	net := signNet()
	doc := []byte(`{"version":1,"gamma":0,"inputs":1,"rejected":0,` +
		`"layers":[{"layer":0,"neurons":2,"patterns":["f0"]}]}`)
	if _, err := Unmarshal(doc, net); err == nil {
		t.Fatal("pattern with bits beyond its neuron count must be rejected")
	}
	ok := []byte(`{"version":1,"gamma":0,"inputs":1,"rejected":0,` +
		`"layers":[{"layer":0,"neurons":2,"patterns":["01"]}]}`)
	if _, err := Unmarshal(ok, net); err != nil {
		t.Fatalf("clean pattern rejected: %v", err)
	}
}

// TestUnmarshalRejectsForgedStats: inputs and rejected sit outside the
// fingerprint, so the decoder is the only place a peer that forges them
// can be stopped (monitor_rejected is echoed in every infer reply).
func TestUnmarshalRejectsForgedStats(t *testing.T) {
	net := signNet()
	for _, tc := range []struct{ name, stats string }{
		{"negative inputs", `"inputs":-1,"rejected":0`},
		{"negative rejected", `"inputs":1,"rejected":-1`},
		{"both negative", `"inputs":-5,"rejected":-7`},
		{"rejected exceeds inputs", `"inputs":1,"rejected":2`},
		{"a pattern from no admitted input", `"inputs":3,"rejected":3`},
		{"no inputs at all", `"inputs":0,"rejected":0`},
	} {
		doc := []byte(`{"version":1,"gamma":0,` + tc.stats + `,"layers":[{"layer":0,"neurons":2,"patterns":["01"]}]}`)
		if _, err := Unmarshal(doc, net); err == nil {
			t.Errorf("%s: document accepted", tc.name)
		}
	}
}

func TestEmptyLayersMeansAllLayers(t *testing.T) {
	// Wire decoders produce empty non-nil slices for "layers": []; the
	// build must treat them exactly like nil (monitor everything), so a
	// request's behaviour never depends on which form the client sent.
	net := signNet()
	a := mustBuild(t, net, [][]float64{{2}}, nil, Options{Layers: nil})
	b := mustBuild(t, net, [][]float64{{2}}, nil, Options{Layers: []int{}})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("nil and empty Layers built different monitors")
	}
}

// TestCheckIntoZeroAllocsAndBitIdentity: a monitored batch of one costs
// no allocation once the scratch has seen it, and the monitored pass
// predicts the very bits the unmonitored serving forward does (the
// reference nn.Forward may differ by kernel-order ULPs).
func TestCheckIntoZeroAllocsAndBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := nn.New(nn.Config{Name: "z", InputDim: 6, Hidden: []int{16, 16}, OutputDim: 3, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	data := randRows(rng, 32, 6, 1)
	m := mustBuild(t, net, data, nil, Options{Gamma: 2})
	var sc BatchScratch
	dst := linalg.NewMatrix(1, net.OutputDim())
	var v [1]Verdict
	m.CheckBatchInto(dst, &sc, data[:1], v[:]) // warm the buffers
	allocs := testing.AllocsPerRun(200, func() {
		m.CheckBatchInto(dst, &sc, data[:1], v[:])
	})
	if allocs != 0 {
		t.Fatalf("a one-row CheckBatchInto allocates %v per op, want 0", allocs)
	}
	serving := linalg.NewMatrix(1, net.OutputDim())
	for i := range data {
		m.CheckBatchInto(dst, &sc, data[i:i+1], v[:])
		net.ForwardBatchInto(serving, net.NewScratch(), data[i:i+1])
		ref := net.Forward(data[i])
		for j := range ref {
			if dst[0][j] != serving[0][j] {
				t.Fatal("monitored prediction differs from nn.ForwardBatchInto")
			}
			if d := dst[0][j] - ref[j]; d > 1e-10 || d < -1e-10 {
				t.Fatalf("monitored prediction outside tolerance of nn.Forward: %v vs %v", dst[0][j], ref[j])
			}
		}
	}
}

// observation is everything the monitored pass says about one input.
type observation struct {
	out      []float64
	patterns [][]byte // per monitored layer
	verdict  Verdict
}

// TestCheckBatchIntoSplitInvariant is the monitor's half of the
// determinism contract: however a 257-row stream is cut into batches,
// every input gets the same prediction bits, the same activation patterns
// and the same verdict — including one row at a time, which is all that
// "checking a single input" means.
func TestCheckBatchIntoSplitInvariant(t *testing.T) {
	const rows = 257
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		cfg   nn.Config
		gamma int
		tanh  int // index of a hidden layer switched to tanh, -1 for none
	}{
		{nn.Config{Name: "odd", InputDim: 7, Hidden: []int{13, 5, 9}, OutputDim: 3, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, 1, -1},
		// 70 neurons: the word-form distance scan crosses a uint64 boundary.
		{nn.Config{Name: "two-words", InputDim: 6, Hidden: []int{70}, OutputDim: 1, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, 9, -1},
		// A tanh layer between two monitored ones: the hook must skip it.
		{nn.Config{Name: "tanh-between", InputDim: 3, Hidden: []int{10, 6, 9}, OutputDim: 2, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, 1, 1},
	} {
		cfg := tc.cfg
		net := nn.New(cfg, rng)
		if tc.tanh >= 0 {
			net.Layers[tc.tanh].Act = nn.Tanh
		}
		m := mustBuild(t, net, randRows(rng, 40, cfg.InputDim, 1), nil, Options{Gamma: tc.gamma})
		xs := randRows(rng, rows, cfg.InputDim, 1.5)
		run := func(chunk int) []observation {
			got := make([]observation, rows)
			dst := linalg.NewMatrix(rows, net.OutputDim())
			verdicts := make([]Verdict, rows)
			var sc BatchScratch
			for lo := 0; lo < rows; lo += chunk {
				hi := min(lo+chunk, rows)
				m.CheckBatchInto(dst[lo:hi], &sc, xs[lo:hi], verdicts[lo:hi])
				for i := lo; i < hi; i++ {
					got[i] = observation{out: dst[i], verdict: verdicts[i]}
					for s, set := range m.sets {
						got[i].patterns = append(got[i].patterns, append([]byte(nil), set.row(sc.pat[s], i-lo)...))
					}
				}
			}
			return got
		}
		want := run(rows)
		flagged := 0
		for _, o := range want {
			if !o.verdict.OK {
				flagged++
			}
		}
		if flagged == 0 || flagged == rows {
			t.Fatalf("%s: %d of %d flagged; the property needs both verdicts", cfg.Name, flagged, rows)
		}
		for _, chunk := range []int{1, 2, 3, 4, 5, 7, 8, 17, 64, 256} {
			for i, o := range run(chunk) {
				if o.verdict != want[i].verdict {
					t.Fatalf("%s chunk %d input %d: verdict %v, whole batch %v", cfg.Name, chunk, i, o.verdict, want[i].verdict)
				}
				for j := range o.out {
					if o.out[j] != want[i].out[j] {
						t.Fatalf("%s chunk %d input %d: prediction bits differ from the whole batch", cfg.Name, chunk, i)
					}
				}
				for s := range o.patterns {
					if !bytes.Equal(o.patterns[s], want[i].patterns[s]) {
						t.Fatalf("%s chunk %d input %d layer slot %d: pattern %x, whole batch %x", cfg.Name, chunk, i, s, o.patterns[s], want[i].patterns[s])
					}
				}
				if chunk != 1 {
					continue
				}
				if got := m.Check(xs[i]); got != want[i].verdict {
					t.Fatalf("%s input %d: Check %v, batch verdict %v", cfg.Name, i, got, want[i].verdict)
				}
			}
		}
	}
}

// TestCheckBatchIntoOneScratchServesAnyMonitor: a BatchScratch holds
// buffers only, so one scratch alternating between two monitors over
// networks of different widths — at batch 1 and at batch 64 — gives each
// the verdicts a private scratch would, and allocates nothing once it has
// seen the larger of the two.
func TestCheckBatchIntoOneScratchServesAnyMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type lane struct {
		m        *Monitor
		xs, dst  [][]float64
		verdicts []Verdict
		want     []Verdict
	}
	var lanes []*lane
	for _, cfg := range []nn.Config{
		{Name: "narrow", InputDim: 3, Hidden: []int{6}, OutputDim: 1, HiddenAct: nn.ReLU, OutputAct: nn.Identity},
		{Name: "wide", InputDim: 9, Hidden: []int{70, 33}, OutputDim: 4, HiddenAct: nn.ReLU, OutputAct: nn.Identity},
	} {
		net := nn.New(cfg, rng)
		l := &lane{
			m:        mustBuild(t, net, randRows(rng, 24, cfg.InputDim, 1), nil, Options{Gamma: 1}),
			xs:       randRows(rng, 64, cfg.InputDim, 1.5),
			dst:      linalg.NewMatrix(64, cfg.OutputDim),
			verdicts: make([]Verdict, 64),
			want:     make([]Verdict, 64),
		}
		l.m.CheckBatchInto(linalg.NewMatrix(64, cfg.OutputDim), new(BatchScratch), l.xs, l.want)
		lanes = append(lanes, l)
	}
	var shared BatchScratch
	round := func() {
		for _, n := range []int{1, 64} {
			for _, l := range lanes {
				l.m.CheckBatchInto(l.dst[:n], &shared, l.xs[:n], l.verdicts[:n])
			}
		}
	}
	round() // grow to the larger monitor
	for _, l := range lanes {
		for i := range l.want {
			if l.verdicts[i] != l.want[i] {
				t.Fatalf("input %d: shared-scratch verdict %v, private scratch %v", i, l.verdicts[i], l.want[i])
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("a warmed scratch alternating between monitors allocates %v per round, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched verdict length must panic")
		}
	}()
	lanes[0].m.CheckBatchInto(lanes[0].dst, &shared, lanes[0].xs, lanes[0].verdicts[:3])
}

// TestBuildPinnedAtParent pins chunked Build to the per-input Build it
// replaced: fingerprint, marshal length and stats below were recorded at
// the parent commit (ca97312) from this exact workload — 300 rows, not a
// multiple of buildChunk, every third drawn wide of a box small enough
// that interval analysis proves neurons stable — so the same patterns are
// stored in the same order and the same rows are rejected.
func TestBuildPinnedAtParent(t *testing.T) {
	rng := rand.New(rand.NewSource(2301))
	net := nn.New(nn.Config{Name: "pin", InputDim: 5, Hidden: []int{11, 9}, OutputDim: 3, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	box := make([]bounds.Interval, 5)
	for i := range box {
		box[i] = bounds.Interval{Lo: 0.1, Hi: 0.5}
	}
	nb, err := bounds.Propagate(net, box)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float64, 300)
	for i := range data {
		data[i] = make([]float64, 5)
		for j := range data[i] {
			if i%3 == 2 {
				data[i][j] = rng.NormFloat64()
			} else {
				data[i][j] = 0.1 + 0.4*rng.Float64()
			}
		}
	}
	if len(data)%buildChunk == 0 {
		t.Fatal("the pin needs a ragged last chunk")
	}
	m := mustBuild(t, net, data, [][]bounds.Interval{nb.Layers[0].Pre, nb.Layers[1].Pre}, Options{Gamma: 1})
	doc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const wantFP = "vnnm1-7e3c9d90a78555124522854809d49d36eabcf0718557434e7d6cb9f6a5cd5b40"
	if fp := m.Fingerprint(); fp != wantFP || len(doc) != 514 {
		t.Fatalf("fingerprint %s, marshal %d bytes; parent built %s, 514 bytes", fp, len(doc), wantFP)
	}
	if st := m.Stats(); st.Inputs != 300 || st.Rejected != 71 || len(st.Patterns) != 2 || st.Patterns[0] != 42 || st.Patterns[1] != 12 {
		t.Fatalf("stats %+v; parent counted 300 inputs, 71 rejected, patterns [42 12]", st)
	}
}

func TestConcurrentChecksAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := nn.New(nn.Config{Name: "c", InputDim: 5, Hidden: []int{12, 12}, OutputDim: 2, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	m := mustBuild(t, net, randRows(rng, 48, 5, 1), nil, Options{Gamma: 1})
	probes := randRows(rng, 64, 5, 2)
	want := make([]Verdict, len(probes))
	for i, x := range probes {
		want[i] = m.Check(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			var sc BatchScratch
			dst := linalg.NewMatrix(chunk, net.OutputDim())
			got := make([]Verdict, chunk)
			for lo := 0; lo+chunk <= len(probes); lo += chunk {
				m.CheckBatchInto(dst, &sc, probes[lo:lo+chunk], got)
				for i, v := range got {
					if v != want[lo+i] {
						t.Errorf("probe %d: concurrent verdict %v, want %v", lo+i, v, want[lo+i])
						return
					}
				}
			}
		}(1 << (g % 4)) // goroutines check in batches of 1, 2, 4 and 8
	}
	wg.Wait()
}

func TestBuildValidation(t *testing.T) {
	net := signNet()
	if _, err := Build(net, nil, nil, Options{}); err == nil {
		t.Fatal("empty dataset must error")
	}
	if _, err := Build(net, [][]float64{{1}}, nil, Options{Gamma: -1}); err == nil {
		t.Fatal("negative gamma must error")
	}
	if _, err := Build(net, [][]float64{{1, 2}}, nil, Options{}); err == nil {
		t.Fatal("wrong input dimension must error")
	}
	if _, err := Build(net, [][]float64{{1}}, nil, Options{Layers: []int{1}}); err == nil {
		t.Fatal("monitoring the output layer must error")
	}
	tanh := nn.New(nn.Config{Name: "t", InputDim: 2, Hidden: []int{4}, OutputDim: 1, HiddenAct: nn.Tanh, OutputAct: nn.Identity},
		rand.New(rand.NewSource(1)))
	if _, err := Build(tanh, [][]float64{{0, 0}}, nil, Options{}); err == nil {
		t.Fatal("network without hidden ReLU layers must error")
	}
}

func TestLayerSubsetMonitoring(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := nn.New(nn.Config{Name: "s", InputDim: 3, Hidden: []int{6, 6}, OutputDim: 1, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	data := [][]float64{{0.1, 0.2, 0.3}, {-0.4, 0.5, -0.6}}
	m := mustBuild(t, net, data, nil, Options{Layers: []int{1}})
	if got := m.Layers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Layers = %v, want [1]", got)
	}
	if v := m.Check(data[0]); !v.OK || v.Layer != 1 {
		t.Fatalf("subset monitor verdict %v, want ok on layer 1", v)
	}
}
