package vnn

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/nn"
)

// signNet is a hand-built predictor: hidden ReLU pair computing (x, −x).
// Over the region x ∈ [1, 3] interval analysis proves neuron 0 stably
// active and neuron 1 stably inactive.
func signNet() *nn.Network {
	return &nn.Network{Name: "sign", Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
}

func compileSign(t *testing.T) *CompiledNetwork {
	t.Helper()
	cn, err := Compile(context.Background(), signNet(),
		&Region{Box: []Interval{{Lo: 1, Hi: 3}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cn
}

func TestBuildMonitorRejectsStaticallyUnreachablePattern(t *testing.T) {
	cn := compileSign(t)
	// x = −2 lies outside the compiled region; its pattern activates the
	// neuron the compiled bounds prove stably inactive, so the build must
	// reject it rather than teach the monitor uncertified behaviour.
	mon, err := BuildMonitor(cn, [][]float64{{2}, {-2}}, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := mon.Stats(); st.Rejected != 1 || st.Inputs != 2 {
		t.Fatalf("stats %+v, want 1 of 2 inputs rejected as unreachable", st)
	}
	if v := mon.Check([]float64{2.5}); !v.OK {
		t.Fatalf("in-region, in-pattern input flagged: %v", v)
	}
	if v := mon.Check([]float64{-2}); v.OK {
		t.Fatalf("rejected pattern accepted at runtime: %v", v)
	}
}

func TestMonitorMarshalRoundTripAndWorkloadBinding(t *testing.T) {
	cn := compileSign(t)
	mon, err := BuildMonitor(cn, [][]float64{{1.5}, {2.5}}, MonitorOptions{Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := MarshalMonitor(mon)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalMonitor(doc, cn)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != mon.Fingerprint() || back.Gamma() != 1 {
		t.Fatal("round trip changed the monitor")
	}
	if back.NetworkFingerprint() != mon.NetworkFingerprint() {
		t.Fatal("round trip changed the workload binding")
	}
	// A monitor must not attach to a different compile workload.
	other, err := Compile(context.Background(), signNet(),
		&Region{Box: []Interval{{Lo: 0, Hi: 5}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalMonitor(doc, other); err == nil {
		t.Fatal("monitor attached to a workload with a different fingerprint")
	}
}

// TestMonitorNameCoversWorkload: two workloads whose monitors store the
// same patterns get two names, and a monitor's size is a function of
// what it stores.
func TestMonitorNameCoversWorkload(t *testing.T) {
	data := [][]float64{{1.5}, {2.5}}
	var names []string
	var docs []json.RawMessage
	var sizes []int64
	for _, hi := range []float64{3, 3.001} {
		cn, err := Compile(context.Background(), signNet(), &Region{Box: []Interval{{Lo: 1, Hi: hi}}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mon, err := BuildMonitor(cn, data, MonitorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := MarshalMonitor(mon)
		if err != nil {
			t.Fatal(err)
		}
		var doc MonitorDocJSON
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		names, docs, sizes = append(names, mon.Fingerprint()), append(docs, doc.Monitor), append(sizes, mon.SizeBytes())
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("the two monitors store different patterns (the scenario under test)")
	}
	if names[0] == names[1] {
		t.Fatalf("two workloads share the monitor name %s", names[0])
	}
	if sizes[0] <= 0 || sizes[0] != sizes[1] {
		t.Fatalf("sizes %v, want one positive figure for equal contents", sizes)
	}
}

func TestMonitorBuildDeterministicAcrossBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := NewNetwork(NetworkConfig{
		Name: "det", InputDim: 4, Hidden: []int{10, 8}, OutputDim: 2,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
	box := make([]Interval, 4)
	for i := range box {
		box[i] = Interval{Lo: -1, Hi: 1}
	}
	cn, err := Compile(context.Background(), net, &Region{Box: box}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float64, 50)
	dataRng := rand.New(rand.NewSource(5))
	for i := range data {
		row := make([]float64, 4)
		for j := range row {
			row[j] = dataRng.Float64()*2 - 1
		}
		data[i] = row
	}
	a, err := BuildMonitor(cn, data, MonitorOptions{Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildMonitor(cn, data, MonitorOptions{Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same dataset produced different monitor fingerprints")
	}
	am, _ := MarshalMonitor(a)
	bm, _ := MarshalMonitor(b)
	if !bytes.Equal(am, bm) {
		t.Fatal("same dataset produced different monitor marshals")
	}
}

func TestMonitorAuditAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	net := NewNetwork(NetworkConfig{
		Name: "audit", InputDim: 3, Hidden: []int{8, 8}, OutputDim: 1,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
	box := make([]Interval, 3)
	for i := range box {
		box[i] = Interval{Lo: -1, Hi: 1}
	}
	cn, err := Compile(context.Background(), net, &Region{Box: box}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately thin dataset: one corner of the region. Fresh
	// coverage-generated probes should flag plenty of novelty.
	data := [][]float64{{0.9, 0.9, 0.9}, {0.8, 0.9, 0.85}}
	finding, err := AnalyzeOne(context.Background(), cn, &MonitorAudit{
		Data: data, AuditTests: 400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mf := finding.Monitor
	if mf == nil || finding.Kind != KindMonitorAudit {
		t.Fatalf("finding %+v, want a monitor_audit payload", finding)
	}
	if mf.Audited == 0 {
		t.Fatal("audit checked no generated inputs")
	}
	if mf.Flagged == 0 || mf.FlaggedFraction <= 0 {
		t.Fatalf("thin dataset audit flagged nothing: %+v", mf)
	}
	if mf.Monitor == nil || mf.Fingerprint != mf.Monitor.Fingerprint() {
		t.Fatal("finding does not carry its built monitor")
	}
	// Reproducibility: the same seed audits the same probes.
	again, err := AnalyzeOne(context.Background(), cn, &MonitorAudit{
		Data: data, AuditTests: 400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Monitor.Audited != mf.Audited || again.Monitor.Flagged != mf.Flagged {
		t.Fatalf("same seed, different audit: %+v vs %+v", again.Monitor, mf)
	}
	// Wire form round trip.
	fj := finding.JSON()
	if fj.Monitor == nil || fj.Monitor.Flagged != mf.Flagged || fj.Kind != KindMonitorAudit {
		t.Fatalf("wire finding %+v", fj)
	}
	rep := NewAnalysisReport(net, []*Finding{finding})
	if rep.Worst != Inconclusive.String() {
		t.Fatalf("monitor-only report worst = %q, want inconclusive (nothing proved)", rep.Worst)
	}
}

func TestMonitorAuditSpecDecoding(t *testing.T) {
	spec := AnalysisSpec{Kind: KindMonitorAudit, Data: [][]float64{{0.5}}, Gamma: 2, AuditTests: 10, Seed: 1}
	a, err := spec.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	ma, ok := a.(*MonitorAudit)
	if !ok || ma.Gamma != 2 || ma.AuditTests != 10 {
		t.Fatalf("decoded %+v", a)
	}
	if err := validateSpec(&spec, signNet()); err != nil {
		t.Fatalf("validate: %v", err)
	}
	bad := AnalysisSpec{Kind: KindMonitorAudit}
	if _, err := bad.Analysis(); err == nil {
		t.Fatal("spec without data must fail")
	}
	wrongDim := AnalysisSpec{Kind: KindMonitorAudit, Data: [][]float64{{1, 2}}}
	if err := validateSpec(&wrongDim, signNet()); err == nil {
		t.Fatal("wrong data dimension must fail validation")
	}
	badLayer := AnalysisSpec{Kind: KindMonitorAudit, Data: [][]float64{{1}}, Layers: []int{1}}
	if err := validateSpec(&badLayer, signNet()); err == nil {
		t.Fatal("non-ReLU monitored layer must fail validation")
	}
	// Duplicate/descending layer lists must be a client error (400), not a
	// late Build failure the service maps to 500.
	dupLayer := AnalysisSpec{Kind: KindMonitorAudit, Data: [][]float64{{1}}, Layers: []int{0, 0}}
	if err := validateSpec(&dupLayer, signNet()); err == nil {
		t.Fatal("duplicate monitored layers must fail validation")
	}
}

// monitorExport builds a real two-layer monitor over exportNet and returns
// its compiled network with the monitor's wire document.
func monitorExport(t testing.TB) (*CompiledNetwork, []byte) {
	t.Helper()
	cn, err := Compile(context.Background(), exportNet(t), unitBoxRegion(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := BuildMonitor(cn, randomInputs(24, 3, 31), MonitorOptions{Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := MarshalMonitor(mon)
	if err != nil {
		t.Fatal(err)
	}
	return cn, doc
}

// FuzzUnmarshalMonitor drives arbitrary bytes through the monitor decoder
// behind fleet and registry imports. It must never panic, and whatever it
// accepts must be what an honest export looks like: bound to the compiled
// workload, with a fingerprint its re-marshal re-derives, and a re-marshal
// that reproduces itself byte for byte.
func FuzzUnmarshalMonitor(f *testing.F) {
	cn, data := monitorExport(f)
	f.Add(data)
	// The internal decoder's forged build statistics.
	stats := regexp.MustCompile(`"inputs":\d+,"rejected":\d+`)
	if !stats.Match(data) {
		f.Fatal("export has no build statistics to forge")
	}
	for _, forged := range []string{
		`"inputs":-1,"rejected":0`, `"inputs":1,"rejected":-1`, `"inputs":-5,"rejected":-7`,
		`"inputs":1,"rejected":2`, `"inputs":3,"rejected":3`, `"inputs":0,"rejected":0`,
	} {
		f.Add(stats.ReplaceAll(data, []byte(forged)))
	}
	// Gamma replaced by values an integer field cannot carry or that only
	// compare equal: NaN, ±Inf (out of range), −0.
	gamma := regexp.MustCompile(`"gamma":\d+`)
	for _, v := range []string{"NaN", "1e999", "-1e999", "-0"} {
		f.Add(gamma.ReplaceAll(data, []byte(`"gamma":`+v)))
	}
	f.Add([]byte{})
	// A huge layer count: the first layer repeated 1<<16 times.
	var doc MonitorDocJSON
	var inner struct {
		Layers []json.RawMessage `json:"layers"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || json.Unmarshal(doc.Monitor, &inner) != nil || len(inner.Layers) == 0 {
		f.Fatalf("export does not decode: %v", err)
	}
	layers := bytes.Repeat(append([]byte(","), inner.Layers[0]...), 1<<16)[1:]
	huge := regexp.MustCompile(`"layers":\[.*\]`).ReplaceAll(data, append(append([]byte(`"layers":[`), layers...), ']'))
	f.Add(huge)
	workload, err := Fingerprint(cn.Net(), cn.Region(), cn.Options())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mon, err := UnmarshalMonitor(data, cn)
		if err != nil {
			return
		}
		if mon.NetworkFingerprint() != workload {
			t.Fatalf("accepted monitor bound to %s, not the compiled workload", mon.NetworkFingerprint())
		}
		again, err := MarshalMonitor(mon)
		if err != nil {
			t.Fatalf("accepted monitor does not re-marshal: %v", err)
		}
		mon2, err := UnmarshalMonitor(again, cn)
		if err != nil || mon2.Fingerprint() != mon.Fingerprint() {
			t.Fatalf("re-marshalled monitor refused (%v) or rekeyed", err)
		}
		if third, err := MarshalMonitor(mon2); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-import changed the document (%v)", err)
		}
	})
}
