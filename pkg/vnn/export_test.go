package vnn

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/lp"
)

func exportNet(t testing.TB) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	return NewNetwork(NetworkConfig{
		Name: "fleet-export", InputDim: 3, Hidden: []int{5, 4}, OutputDim: 2,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
}

func constrainedRegion(dim int) *Region {
	r := unitBoxRegion(dim)
	r.Linear = append(r.Linear, LinearConstraint{
		Coeffs: map[int]float64{0: 1, 1: 1},
		Sense:  lp.LE,
		RHS:    1.5,
		Name:   "budget",
	})
	return r
}

// TestCompiledRoundTrip: marshal → unmarshal reproduces the artifact
// bit-for-bit (bounds, fingerprint, verification answers) without a
// Compile call or a tightening pass.
func TestCompiledRoundTrip(t *testing.T) {
	net := exportNet(t)
	region := constrainedRegion(3)
	cn, err := Compile(context.Background(), net, region, Options{Tighten: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := MarshalCompiled(cn)
	if err != nil {
		t.Fatal(err)
	}
	// A second marshal must be byte-identical (canonical form).
	doc2, err := MarshalCompiled(cn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, doc2) {
		t.Fatal("MarshalCompiled is not deterministic")
	}

	propagates := bounds.Passes()
	got, fp, err := UnmarshalCompiled(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Never compiled here: no phases of its own (a Compile would report at
	// least its final encoding)...
	if ph := got.CompilePhases(); ph != (CompilePhases{}) {
		t.Fatalf("import reports compile phases %+v", ph)
	}
	// ...and exactly one plain propagation — the soundness containment
	// check — so no Compile, which propagates too, ran behind it.
	if d := bounds.Passes() - propagates; d != 1 {
		t.Fatalf("import performed %d propagation passes, want 1", d)
	}

	wantFP, err := Fingerprint(net, region, Options{Tighten: true})
	if err != nil {
		t.Fatal(err)
	}
	if fp != wantFP {
		t.Fatalf("imported fingerprint %s, want %s", fp, wantFP)
	}
	if !got.Options().Tighten {
		t.Fatal("imported artifact lost the Tighten option")
	}

	// Bit-identical bound analysis.
	wantPre, gotPre := cn.PreActivationBounds(), got.PreActivationBounds()
	for li := range wantPre {
		for i := range wantPre[li] {
			if wantPre[li][i] != gotPre[li][i] {
				t.Fatalf("layer %d pre bound %d: %+v != %+v", li, i, gotPre[li][i], wantPre[li][i])
			}
		}
	}
	for i, iv := range cn.OutputBounds() {
		if got.OutputBounds()[i] != iv {
			t.Fatalf("output bound %d drifted: %+v != %+v", i, got.OutputBounds()[i], iv)
		}
	}

	// Bit-identical verification answers on the imported artifact.
	want, err := Verify(context.Background(), cn.WithOptions(Options{Workers: 1}), MaxOutput(0), AtMost(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	have, err := Verify(context.Background(), got.WithOptions(Options{Workers: 1}), MaxOutput(0), AtMost(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Value != have[i].Value || want[i].LowerBound != have[i].LowerBound || want[i].UpperBound != have[i].UpperBound {
			t.Fatalf("result %d drifted: %+v != %+v", i, have[i], want[i])
		}
	}
}

// TestCompileIndependentOfWorkers: a compiled artifact is a function of
// its fingerprint, which excludes Workers, so a tightened compile at any
// worker count exports the same bytes. On these 6→12→10→8→3 nets,
// splitting a layer's bound LPs over several warm chains moves bounds in
// the last ulps, so any worker-dependent schedule shows up here.
func TestCompileIndependentOfWorkers(t *testing.T) {
	region := unitBoxRegion(6)
	for seed := int64(70); seed < 90; seed++ {
		net := NewNetwork(NetworkConfig{
			Name: "w", InputDim: 6, Hidden: []int{12, 10, 8}, OutputDim: 3,
			HiddenAct: ReLU, OutputAct: Identity,
		}, rand.New(rand.NewSource(seed)))
		var want []byte
		for w := 0; w <= 4; w++ {
			cn, err := Compile(context.Background(), net, region, Options{Tighten: true, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := MarshalCompiled(cn)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = doc
			} else if !bytes.Equal(doc, want) {
				t.Errorf("seed %d: workers %d exports a different artifact than workers 0", seed, w)
			}
		}
	}
}

// tamperings are content changes an honest export never shows: any one
// of them must fail the fingerprint re-verification, and bounds widened
// beyond the plain propagation must fail containment even when the
// fingerprint is left intact (bounds are not part of its preimage).
var tamperings = []struct {
	name string
	f    func(d *CompiledDocJSON)
}{
	{"weight", func(d *CompiledDocJSON) {
		d.Network = json.RawMessage(strings.Replace(string(d.Network), `"b":[`, `"b":[0.125,`, 1))
	}},
	{"region", func(d *CompiledDocJSON) { d.Region.Box[0][1] = 2 }},
	{"option", func(d *CompiledDocJSON) { d.Tighten = false }},
	{"claimed fingerprint", func(d *CompiledDocJSON) { d.Fingerprint = "vnn1-deadbeef" }},
	{"widened bound", func(d *CompiledDocJSON) { d.Pre[0][0][0] -= 1000 }},
	{"inverted bound", func(d *CompiledDocJSON) { d.Pre[0][0][0], d.Pre[0][0][1] = d.Pre[0][0][1]+1, d.Pre[0][0][0] }},
	{"dropped layer", func(d *CompiledDocJSON) { d.Post = d.Post[:1] }},
}

// tightenedExport is a real tightened export of exportNet over [-1, 1]³.
func tightenedExport(t testing.TB) []byte {
	t.Helper()
	cn, err := Compile(context.Background(), exportNet(t), unitBoxRegion(3), Options{Tighten: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalCompiled(cn)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tampered applies one tampering to a decoded copy of data.
func tampered(t testing.TB, data []byte, f func(d *CompiledDocJSON)) []byte {
	t.Helper()
	var d CompiledDocJSON
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	f(&d)
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestUnmarshalCompiledRejectsTampering: every tampering is refused.
func TestUnmarshalCompiledRejectsTampering(t *testing.T) {
	data := tightenedExport(t)
	for _, tc := range tamperings {
		if _, _, err := UnmarshalCompiled(tampered(t, data, tc.f)); err == nil {
			t.Fatalf("%s: tampered document imported cleanly", tc.name)
		}
	}
}

// FuzzUnmarshalCompiled drives arbitrary bytes through the fleet import.
// It must never panic, and whatever it accepts must be what an honest
// export looks like: the fingerprint recomputes from the content, a
// re-marshal is accepted again and reproduces itself byte for byte, and
// every bound lies inside a fresh plain propagation of the region.
func FuzzUnmarshalCompiled(f *testing.F) {
	data := tightenedExport(f)
	f.Add(data)
	for _, tc := range tamperings {
		f.Add(tampered(f, data, tc.f))
	}
	// The first pre bound replaced by values JSON floats cannot carry or
	// that only compare equal: NaN, ±Inf (out of range), −0.
	first := regexp.MustCompile(`"pre":\[\[\[[^,]+,`)
	if !first.Match(data) {
		f.Fatal("export has no pre bound to replace")
	}
	for _, v := range []string{"NaN", "1e999", "-1e999", "-0"} {
		f.Add(first.ReplaceAll(data, []byte(`"pre":[[[`+v+`,`)))
	}
	f.Add(tampered(f, data, func(d *CompiledDocJSON) { d.Pre = nil }))
	f.Add(tampered(f, data, func(d *CompiledDocJSON) { d.Pre[0] = nil }))
	f.Add(tampered(f, data, func(d *CompiledDocJSON) { d.Pre = make([][]intervalJSON, 1<<16) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		cn, fp, err := UnmarshalCompiled(data)
		if err != nil {
			return
		}
		if want, err := Fingerprint(cn.Net(), cn.Region(), cn.Options()); err != nil || want != fp {
			t.Fatalf("accepted fingerprint %s, content hashes to %s (%v)", fp, want, err)
		}
		again, err := MarshalCompiled(cn)
		if err != nil {
			t.Fatalf("accepted document does not re-marshal: %v", err)
		}
		cn2, fp2, err := UnmarshalCompiled(again)
		if err != nil || fp2 != fp {
			t.Fatalf("re-marshalled document refused (%v) or rekeyed %s → %s", err, fp, fp2)
		}
		if third, err := MarshalCompiled(cn2); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-import changed the document (%v)", err)
		}
		plain, err := bounds.Propagate(cn.Net(), cn.Region().Box)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range cn.c.Bounds().Layers {
			for _, pair := range [][2][]Interval{{l.Pre, plain.Layers[li].Pre}, {l.Post, plain.Layers[li].Post}} {
				for j, iv := range pair[0] {
					if p := pair[1][j]; !(iv.Lo <= iv.Hi && p.Lo <= iv.Lo && iv.Hi <= p.Hi) {
						t.Fatalf("layer %d bound %d %+v not inside the propagated %+v", li, j, iv, p)
					}
				}
			}
		}
	})
}
