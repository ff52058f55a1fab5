package vnn

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/lp"
)

func exportNet(t *testing.T) *Network {
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
	cn, err := Compile(context.Background(), net, region, Options{Tighten: true, Workers: 1})
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

// TestUnmarshalCompiledRejectsTampering: any content change must fail
// the fingerprint re-verification, and bounds widened beyond the plain
// propagation must fail containment even when the fingerprint is left
// intact (bounds are not part of the fingerprint preimage).
func TestUnmarshalCompiledRejectsTampering(t *testing.T) {
	cn, err := Compile(context.Background(), exportNet(t), unitBoxRegion(3), Options{Tighten: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalCompiled(cn)
	if err != nil {
		t.Fatal(err)
	}

	var doc CompiledDocJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(d *CompiledDocJSON)) {
		var d CompiledDocJSON
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
		f(&d)
		buf, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := UnmarshalCompiled(buf); err == nil {
			t.Fatalf("%s: tampered document imported cleanly", name)
		}
	}

	mutate("weight", func(d *CompiledDocJSON) {
		d.Network = json.RawMessage(strings.Replace(string(d.Network), `"b":[`, `"b":[0.125,`, 1))
	})
	mutate("region", func(d *CompiledDocJSON) { d.Region.Box[0][1] = 2 })
	mutate("option", func(d *CompiledDocJSON) { d.Tighten = false })
	mutate("claimed fingerprint", func(d *CompiledDocJSON) { d.Fingerprint = "vnn1-deadbeef" })
	mutate("widened bound", func(d *CompiledDocJSON) { d.Pre[0][0][0] -= 1000 })
	mutate("inverted bound", func(d *CompiledDocJSON) { d.Pre[0][0][0], d.Pre[0][0][1] = d.Pre[0][0][1]+1, d.Pre[0][0][0] })
	mutate("dropped layer", func(d *CompiledDocJSON) { d.Post = d.Post[:1] })
}
