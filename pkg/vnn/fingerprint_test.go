package vnn_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/pkg/vnn"
)

// TestMarshalNetworkRoundTrip pins the canonical serialization: bytes are
// deterministic for a fixed network, decode inverts encode, and invalid
// payloads are rejected by validation.
func TestMarshalNetworkRoundTrip(t *testing.T) {
	pred := core.NewPredictorNet(2, 6, 2, 11)
	a, err := vnn.MarshalNetwork(pred.Net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vnn.MarshalNetwork(pred.Net)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("MarshalNetwork is not deterministic")
	}
	back, err := vnn.UnmarshalNetwork(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := vnn.MarshalNetwork(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Fatal("round trip changed the canonical bytes")
	}

	if _, err := vnn.UnmarshalNetwork([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// Structurally broken (bias length mismatch) must fail validation.
	if _, err := vnn.UnmarshalNetwork([]byte(
		`{"name":"bad","layers":[{"w":[[1,2]],"b":[0,0],"act":1}]}`)); err == nil {
		t.Fatal("invalid network accepted")
	}
}

// TestUnmarshalNetworkTakesCanonicalDocuments pins that the one-pass
// decoder is the one taken for what MarshalNetwork writes, indented too,
// and that it gives encoding/json's network (FuzzUnmarshalNetwork only
// proves the two agree where both decode).
func TestUnmarshalNetworkTakesCanonicalDocuments(t *testing.T) {
	for _, net := range []*vnn.Network{core.NewPredictorNet(2, 8, 2, 11).Net, fuzzNet()} {
		data, err := vnn.MarshalNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, doc := range [][]byte{data, indented.Bytes()} {
			fast, ok := vnn.DecodeNetworkOnePass(doc)
			if !ok {
				t.Fatalf("%s: one-pass decoder gave up", net.Name)
			}
			ref, err := vnn.UnmarshalNetworkJSON(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameNetwork(fast, ref); err != nil {
				t.Fatalf("%s: %v", net.Name, err)
			}
		}
	}
}

// TestUnmarshalNetworkServesConcurrently is the data race a lazily packed
// network gave: vnnd caches a decoded workload before its first forward
// pass, so two requests may run the first passes at once. Each path of
// UnmarshalNetwork must return the network packed; run under -race.
func TestUnmarshalNetworkServesConcurrently(t *testing.T) {
	data, err := vnn.MarshalNetwork(fuzzNet())
	if err != nil {
		t.Fatal(err)
	}
	// An escaped key is not canonical: encoding/json decodes this one.
	escaped := bytes.Replace(data, []byte(`"name"`), []byte(`"n\u0061me"`), 1)
	if _, ok := vnn.DecodeNetworkOnePass(escaped); ok {
		t.Fatal("the one-pass decoder took an escaped key")
	}
	for _, doc := range [][]byte{data, escaped} {
		net, err := vnn.UnmarshalNetwork(doc)
		if err != nil {
			t.Fatal(err)
		}
		x := [][]float64{{0.1, -0.2, 0.3}}
		outs := [2][][]float64{{make([]float64, 2)}, {make([]float64, 2)}}
		var wg sync.WaitGroup
		for g := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				net.ForwardBatchInto(outs[g], net.NewScratch(), x)
			}()
		}
		wg.Wait()
		if math.Float64bits(outs[0][0][0]) != math.Float64bits(outs[1][0][0]) {
			t.Fatalf("two passes disagree: %v, %v", outs[0], outs[1])
		}
	}
}

// TestFingerprintSensitivity is the cache-keying contract: identical
// workloads hash identically, and ANY perturbation of a weight, a bias,
// the region, or a compile-relevant option changes the hash.
func TestFingerprintSensitivity(t *testing.T) {
	base := func() (*vnn.Network, *vnn.Region) {
		return core.NewPredictorNet(2, 6, 2, 3).Net, vnn.LeftOccupiedRegion()
	}
	net, region := base()
	opts := vnn.Options{Tighten: true}
	fp, err := vnn.Fingerprint(net, region, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Identical workload, separately constructed: identical hash.
	net2, region2 := base()
	fp2, err := vnn.Fingerprint(net2, region2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fp != fp2 {
		t.Fatalf("identical workloads hash differently:\n%s\n%s", fp, fp2)
	}

	seen := map[string]string{fp: "base"}
	check := func(label string, n *vnn.Network, r *vnn.Region, o vnn.Options) {
		t.Helper()
		got, err := vnn.Fingerprint(n, r, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[got]; dup {
			t.Fatalf("%s collides with %s: %s", label, prev, got)
		}
		seen[got] = label
	}

	// One-ulp weight perturbation.
	n, r := base()
	n.Layers[0].W[3][2] = math.Nextafter(n.Layers[0].W[3][2], math.Inf(1))
	check("weight ulp", n, r, opts)

	// Bias perturbation.
	n, r = base()
	n.Layers[1].B[0] += 1e-12
	check("bias", n, r, opts)

	// Region box perturbation.
	n, r = base()
	r.Box[4].Hi = math.Nextafter(r.Box[4].Hi, 2)
	check("region box", n, r, opts)

	// Added linear constraint.
	n, r = base()
	r.Linear = append(r.Linear, vnn.LinearConstraint{
		Coeffs: map[int]float64{0: 1, 1: 1}, Sense: lp.LE, RHS: 1.5,
	})
	check("linear constraint", n, r, opts)

	// Same constraint, different RHS.
	n, r = base()
	r.Linear = append(r.Linear, vnn.LinearConstraint{
		Coeffs: map[int]float64{0: 1, 1: 1}, Sense: lp.LE, RHS: 1.25,
	})
	check("linear constraint rhs", n, r, opts)

	// Compile-relevant option toggled.
	n, r = base()
	check("tighten off", n, r, vnn.Options{Tighten: false})

	// Names are metadata, not content: renaming must NOT change the hash.
	n, r = base()
	n.Name = "renamed"
	n.OutputNames[0] = "other"
	got, err := vnn.Fingerprint(n, r, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Fatal("renaming the network changed the fingerprint")
	}
	// Query-time options are not part of the compiled artifact either.
	n, r = base()
	got, err = vnn.Fingerprint(n, r, vnn.Options{Tighten: true, Workers: 7, MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Fatal("query-time options changed the fingerprint")
	}
}

// TestFingerprintValidates rejects malformed workloads instead of hashing
// garbage.
func TestFingerprintValidates(t *testing.T) {
	pred := core.NewPredictorNet(1, 4, 1, 1)
	if _, err := vnn.Fingerprint(pred.Net, &vnn.Region{Box: []vnn.Interval{{Lo: 0, Hi: 1}}}, vnn.Options{}); err == nil {
		t.Fatal("region/network dimension mismatch accepted")
	}
}

// pinnedMonitorData is a 37×84 dataset from a fixed seed.
func pinnedMonitorData(rows int) [][]float64 {
	rng := rand.New(rand.NewSource(5))
	data := make([][]float64, rows)
	for i := range data {
		data[i] = make([]float64, 84)
		for j := range data[i] {
			data[i][j] = rng.NormFloat64()
		}
	}
	return data
}

// TestFingerprintPinned holds both hashes to values computed before their
// writer was buffered: a cached or replicated key must not move when the
// code that computes it does.
func TestFingerprintPinned(t *testing.T) {
	net := core.NewPredictorNet(2, 6, 2, 3).Net
	fp, err := vnn.Fingerprint(net, vnn.LeftOccupiedRegion(), vnn.Options{Tighten: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "vnn1-d0652d44536ffaf2f5f45a89c1a4d67f8dee5ea4a82db138e1400dc3aef9cdca"; fp != want {
		t.Fatalf("Fingerprint %s, pinned %s", fp, want)
	}
	mfp := vnn.MonitorWorkloadFingerprint(fp, pinnedMonitorData(37), vnn.MonitorOptions{Gamma: 2, Layers: []int{0, 1}})
	if want := "vnnmw1-8fb3bcf17f052e1dbccb2ce067ce2fa57dfaef1388b6c2fafa18d66a57196c8c"; mfp != want {
		t.Fatalf("MonitorWorkloadFingerprint %s, pinned %s", mfp, want)
	}
}

// TestMonitorWorkloadFingerprintAllocs bounds the hash of a build dataset
// to a constant number of allocations, whatever the data size: it runs on
// every full-spec /v1/infer request.
func TestMonitorWorkloadFingerprintAllocs(t *testing.T) {
	for _, rows := range []int{1, 256} {
		data := pinnedMonitorData(rows)
		allocs := testing.AllocsPerRun(20, func() {
			vnn.MonitorWorkloadFingerprint("vnn1-x", data, vnn.MonitorOptions{Gamma: 1})
		})
		if allocs > 6 {
			t.Fatalf("%d rows: %v allocations, want at most 6", rows, allocs)
		}
	}
}
