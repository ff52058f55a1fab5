package vnnregistry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/nn"
	"repro/pkg/vnn"
)

// absNet is the |x1 − x2| network: over [0, 1]² its output lies in
// [0, 1], so "at_most 1.5" is provable and "at_most 0.5" is violated —
// a one-property gate in both polarities.
func absNet() *vnn.Network {
	return &nn.Network{Name: "absdiff", Layers: []*nn.Layer{
		{W: [][]float64{{1, -1}, {-1, 1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
}

// scaledNet is absNet with the output doubled — a distinct fingerprint
// whose outputs are trivially distinguishable from absNet's.
func scaledNet() *vnn.Network {
	return &nn.Network{Name: "absdiff2", Layers: []*nn.Layer{
		{W: [][]float64{{1, -1}, {-1, 1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{2, 2}}, B: []float64{0}, Act: nn.Identity},
	}}
}

func testConfig(dir string, compiles *atomic.Int64) Config {
	return Config{
		Dir: dir,
		Compile: func(ctx context.Context, fp string, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
			if compiles != nil {
				compiles.Add(1)
			}
			return vnn.Compile(ctx, net, region, opts)
		},
	}
}

func newReady(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r := New(cfg)
	if r.Ready() {
		t.Fatal("registry ready before Recover")
	}
	if err := r.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.Ready() || r.ReadyReason() != "" {
		t.Fatalf("not ready after Recover: %q", r.ReadyReason())
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func submission(t *testing.T, model string, net *vnn.Network, gate *vnn.GateSpec) Submission {
	t.Helper()
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	spec := vnn.RegionSpec{Box: [][2]float64{{0, 1}, {0, 1}}}
	region, err := spec.Region()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := vnn.Fingerprint(net, region, vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Submission{
		Model: model, NetworkJSON: netJSON, Net: net, Region: region,
		RegionSpec: spec, Fingerprint: fp, Gate: gate,
	}
}

func gateSpec(t *testing.T, raw string) *vnn.GateSpec {
	t.Helper()
	g := new(vnn.GateSpec)
	if err := json.Unmarshal([]byte(raw), g); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// verifyFinding is a hand-made verification finding with the given
// per-property outcomes — what a host's gate run would report.
func verifyFinding(outcomes ...vnn.Outcome) *vnn.Finding {
	f := &vnn.Finding{Kind: vnn.KindVerify}
	for _, o := range outcomes {
		f.Verification = append(f.Verification, &vnn.Result{Outcome: o})
	}
	return f
}

// admit submits a version and plays the host's part of its gate run — the
// compile, a serving monitor over data when given — then has the registry
// decide on the findings, requiring admission.
func admit(t *testing.T, r *Registry, sub Submission, data [][]float64, findings ...*vnn.Finding) *Version {
	t.Helper()
	v, err := r.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := vnn.Compile(context.Background(), sub.Net, sub.Region, vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mon *vnn.Monitor
	if data != nil {
		if mon, err = vnn.BuildMonitor(cn, data, sub.MonitorOpts); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := r.Decide(v, cn, mon, findings)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != string(StateAdmitted) {
		t.Fatalf("gate left version in state %s: %+v", doc.State, doc.Gate)
	}
	return v
}

func TestLifecyclePromoteRollback(t *testing.T) {
	r := newReady(t, testConfig("", nil))
	v1 := admit(t, r, submission(t, "m", absNet(), nil), nil)

	// Canary with no live version is illegal: there is nothing to split
	// traffic with.
	if _, err := r.Promote("m", v1.Seq(), 25); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("canary without live: %v", err)
	}
	doc, err := r.Promote("m", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != string(StateLive) || doc.Version != 1 {
		t.Fatalf("promote: %+v", doc)
	}
	// Re-promoting the live version is a no-op error, not a new transition.
	if _, err := r.Promote("m", 1, 100); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("re-promote live: %v", err)
	}

	admit(t, r, submission(t, "m", scaledNet(), nil), nil)
	doc, err = r.Promote("m", 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != string(StateCanary) || doc.CanaryPercent != 30 {
		t.Fatalf("canary: %+v", doc)
	}
	// Full cutover retires v1 and remembers it as the rollback target.
	doc, err = r.Promote("m", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != string(StateLive) || doc.Version != 2 {
		t.Fatalf("cutover: %+v", doc)
	}
	md, err := r.Model("m")
	if err != nil {
		t.Fatal(err)
	}
	if md.Live != 2 || md.PreviousLive != 1 || md.Versions[0].State != string(StateRetired) {
		t.Fatalf("post-cutover doc: %+v", md)
	}

	// Rollback is symmetric: v1 serves again, v2 becomes the new target.
	doc, err = r.Rollback("m")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 || doc.State != string(StateLive) {
		t.Fatalf("rollback: %+v", doc)
	}
	doc, err = r.Rollback("m")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 2 || doc.State != string(StateLive) {
		t.Fatalf("second rollback: %+v", doc)
	}

	// The audit history must record every step of the dance.
	md, _ = r.Model("m")
	var steps []string
	for _, tr := range md.Versions[0].Transitions {
		steps = append(steps, tr.To)
	}
	want := []string{"pending", "admitted", "live", "retired", "live", "retired"}
	if got := strings.Join(steps, ","); got != strings.Join(want, ",") {
		t.Fatalf("v1 history %s, want %s", got, strings.Join(want, ","))
	}
}

// TestGateDecisions walks the gate's corner of the state machine on
// hand-made findings: no compile, no solve — the registry only evaluates,
// transitions and persists.
func TestGateDecisions(t *testing.T) {
	const oneProperty = `"analyses":[{"kind":"verify","properties":[{"kind":"at_most","output":0,"threshold":0.5}]}]`
	for _, tc := range []struct {
		name     string
		gate     string // "" submits ungated
		findings []*vnn.Finding
		want     State
		reason   string // substring of the decision's fail reason
	}{
		{"violated rejects", `{` + oneProperty + `}`, []*vnn.Finding{verifyFinding(vnn.Violated)}, StateRejected, "violated"},
		{"inconclusive rejects by default", `{` + oneProperty + `}`, []*vnn.Finding{verifyFinding(vnn.Inconclusive)}, StateRejected, "requires proved"},
		{"inconclusive admits when not requiring proved", `{` + oneProperty + `,"require_proved":false}`, []*vnn.Finding{verifyFinding(vnn.Inconclusive)}, StateAdmitted, ""},
		{"proved admits", `{` + oneProperty + `}`, []*vnn.Finding{verifyFinding(vnn.Proved)}, StateAdmitted, ""},
		{"ungated admits", "", nil, StateAdmitted, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReady(t, testConfig("", nil))
			var gate *vnn.GateSpec
			if tc.gate != "" {
				gate = gateSpec(t, tc.gate)
			}
			v, err := r.Submit(submission(t, "m", absNet(), gate))
			if err != nil {
				t.Fatal(err)
			}
			doc, err := r.Decide(v, nil, nil, tc.findings)
			if err != nil {
				t.Fatal(err)
			}
			if doc.State != string(tc.want) || doc.Gate == nil || doc.Gate.Pass != (tc.want == StateAdmitted) {
				t.Fatalf("state %s, decision %+v, want %s", doc.State, doc.Gate, tc.want)
			}
			if got := doc.Gate.FailReason(); !strings.Contains(got, tc.reason) || (tc.reason == "") != (got == "") {
				t.Fatalf("fail reason %q, want it to contain %q", got, tc.reason)
			}
			if last := doc.Transitions[len(doc.Transitions)-1]; last.From != string(StatePending) || last.To != string(tc.want) {
				t.Fatalf("last transition %+v", last)
			}
			// A decided version is decided: neither outcome can be recorded
			// over it.
			if _, err := r.Decide(v, nil, nil, tc.findings); !errors.Is(err, ErrBadTransition) {
				t.Fatalf("second Decide: %v", err)
			}
			if err := r.FailGate(v, errors.New("late")); !errors.Is(err, ErrBadTransition) {
				t.Fatalf("FailGate after Decide: %v", err)
			}
			if tc.want == StateRejected {
				// A rejected version never routes — the model is known but
				// unservable — and cannot be promoted around the gate.
				if _, err := r.Resolve("m", [][]float64{{0.5, 0.5}}); !errors.Is(err, ErrNoServing) {
					t.Fatalf("resolve after rejection: %v", err)
				}
				if _, err := r.Promote("m", v.Seq(), 100); !errors.Is(err, ErrBadTransition) {
					t.Fatalf("promote rejected: %v", err)
				}
			}
		})
	}

	t.Run("failed run rejects with the cause", func(t *testing.T) {
		r := newReady(t, testConfig("", nil))
		v, err := r.Submit(submission(t, "m", absNet(), nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.FailGate(v, errors.New("compile: boom")); err != nil {
			t.Fatal(err)
		}
		doc := r.Doc(v)
		if doc.State != string(StateRejected) || doc.GateError != "compile: boom" || doc.Gate != nil {
			t.Fatalf("failed gate: %+v", doc)
		}
		if _, err := r.Decide(v, nil, nil, nil); !errors.Is(err, ErrBadTransition) {
			t.Fatalf("Decide after FailGate: %v", err)
		}
	})

	t.Run("not ready", func(t *testing.T) {
		r := New(testConfig("", nil))
		if _, err := r.Decide(&Version{state: StatePending}, nil, nil, nil); !errors.Is(err, ErrNotReady) {
			t.Fatalf("Decide before recover: %v", err)
		}
	})
}

func TestRouteHashDeterministic(t *testing.T) {
	a := [][]float64{{0.25, 0.75}, {1, 0}}
	if routeHash(a) != routeHash([][]float64{{0.25, 0.75}, {1, 0}}) {
		t.Fatal("identical inputs hash differently")
	}
	if routeHash(a) == routeHash([][]float64{{0.75, 0.25}, {1, 0}}) {
		t.Fatal("distinct inputs collide (content-insensitive hash)")
	}
}

func TestCanaryRoutingDeterministicAndMonotone(t *testing.T) {
	r := newReady(t, testConfig("", nil))
	admit(t, r, submission(t, "m", absNet(), nil), nil)
	if _, err := r.Promote("m", 1, 100); err != nil {
		t.Fatal(err)
	}
	admit(t, r, submission(t, "m", scaledNet(), nil), nil)
	if _, err := r.Promote("m", 2, 40); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	inputs := make([][][]float64, 300)
	for i := range inputs {
		inputs[i] = [][]float64{{rng.Float64(), rng.Float64()}}
	}
	canaryAt40 := make(map[int]bool)
	for i, in := range inputs {
		first, err := r.Resolve("m", in)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := r.Resolve("m", in)
			if err != nil {
				t.Fatal(err)
			}
			if again.Version != first.Version || again.Route != first.Route {
				t.Fatalf("input %d: routing flapped between identical requests", i)
			}
		}
		canaryAt40[i] = first.Route == "canary"
	}
	var canaries int
	for _, c := range canaryAt40 {
		if c {
			canaries++
		}
	}
	// The share is a hash property, not a sampler: just require both
	// sides populated and the fraction in a generous band around 40%.
	if canaries < len(inputs)/5 || canaries > len(inputs)*3/5 {
		t.Fatalf("%d of %d requests routed to a 40%% canary", canaries, len(inputs))
	}

	// Growing the canary never moves a request off it: buckets below 40
	// are also below 80.
	if _, err := r.Promote("m", 2, 80); err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		sv, err := r.Resolve("m", in)
		if err != nil {
			t.Fatal(err)
		}
		if canaryAt40[i] && sv.Route != "canary" {
			t.Fatalf("input %d left the canary when its share grew", i)
		}
	}
}

func TestPersistenceRecovery(t *testing.T) {
	dir := t.TempDir()
	r1 := newReady(t, testConfig(dir, nil))
	// Version 1 passes a real gate and carries a serving monitor: decision,
	// monitor document and monitor fingerprint must all survive the restart.
	monData := [][]float64{{0.9, 0.1}, {0.1, 0.9}}
	sub1 := submission(t, "m", absNet(), gateSpec(t,
		`{"analyses":[{"kind":"verify","properties":[{"kind":"at_most","output":0,"threshold":1.5}]}]}`))
	sub1.MonitorFingerprint = vnn.MonitorWorkloadFingerprint(sub1.Fingerprint, monData, sub1.MonitorOpts)
	v1 := admit(t, r1, sub1, monData, verifyFinding(vnn.Proved))
	if _, err := r1.Promote("m", 1, 100); err != nil {
		t.Fatal(err)
	}
	before, err := r1.Resolve("m", monData[:1])
	if err != nil {
		t.Fatal(err)
	}
	if before.Version != v1 || before.Monitor == nil || before.CN == nil || before.Route != "live" {
		t.Fatalf("resolved version not warm: %+v", before)
	}
	admit(t, r1, submission(t, "m", scaledNet(), nil), nil)
	if _, err := r1.Promote("m", 2, 25); err != nil {
		t.Fatal(err)
	}
	// A third version is left pending: the "crash mid-gate" case.
	if _, err := r1.Submit(submission(t, "m", absNet(), nil)); err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot and audit log must both exist and be well-formed.
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotJSON
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != snapshotSchema || len(snap.Models) != 1 || len(snap.Models[0].Versions) != 3 {
		t.Fatalf("snapshot: schema %q, %d models", snap.Schema, len(snap.Models))
	}
	logRaw, err := os.ReadFile(filepath.Join(dir, transitionsLog))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(logRaw)), "\n")
	// 3 submissions + admit×2 + live + canary = 7 lifecycle steps.
	if len(lines) != 7 {
		t.Fatalf("%d transition-log lines, want 7:\n%s", len(lines), logRaw)
	}
	for _, line := range lines {
		var rec transitionRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("transition line %q: %v", line, err)
		}
	}

	var compiles atomic.Int64
	r2 := newReady(t, testConfig(dir, &compiles))
	md, err := r2.Model("m")
	if err != nil {
		t.Fatal(err)
	}
	if md.Live != 1 || md.Canary != 2 || md.CanaryPercent != 25 {
		t.Fatalf("recovered routing: %+v", md)
	}
	v3 := md.Versions[2]
	if v3.State != string(StateRejected) || !strings.Contains(v3.GateError, "interrupted") {
		t.Fatalf("interrupted pending version recovered as %q (%q)", v3.State, v3.GateError)
	}
	// Only the routable versions recompile; the interrupted one is dead.
	if n := compiles.Load(); n != 2 {
		t.Fatalf("recovery ran %d compiles, want 2", n)
	}
	rv1 := md.Versions[0]
	if rv1.Gate == nil || !rv1.Gate.Pass || rv1.MonitorFingerprint != sub1.MonitorFingerprint {
		t.Fatalf("recovered v1 lost its gate decision or monitor fingerprint: %+v", rv1)
	}
	// Three quarters of the hash space still routes to the live v1.
	var after *Resolved
	for x := 0.0; after == nil || after.Route != "live"; x += 0.125 {
		if after, err = r2.Resolve("m", [][]float64{{x, 1 - x}}); err != nil {
			t.Fatal(err)
		}
	}
	if after.Version.Seq() != 1 || after.CN == nil || after.Monitor == nil || after.Monitor.Fingerprint() != before.Monitor.Fingerprint() {
		t.Fatalf("recovered v1 serves without its monitor: %+v", after)
	}
}

func TestNotReadyBeforeRecover(t *testing.T) {
	r := New(testConfig("", nil))
	if _, err := r.Submit(submission(t, "m", absNet(), nil)); !errors.Is(err, ErrNotReady) {
		t.Fatalf("submit before recover: %v", err)
	}
	if _, err := r.Resolve("m", [][]float64{{0, 0}}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("resolve before recover: %v", err)
	}
	if _, err := r.Promote("m", 0, 100); !errors.Is(err, ErrNotReady) {
		t.Fatalf("promote before recover: %v", err)
	}
	if reason := r.ReadyReason(); !strings.Contains(reason, "in progress") {
		t.Fatalf("ready reason %q", reason)
	}
}

func TestRecoverFailureParksNotReady(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(`{"schema":"bogus/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(testConfig(dir, nil))
	if err := r.Recover(context.Background()); err == nil {
		t.Fatal("recover accepted a foreign schema")
	}
	if r.Ready() {
		t.Fatal("registry ready after failed recovery")
	}
	if reason := r.ReadyReason(); !strings.Contains(reason, "recovery failed") {
		t.Fatalf("ready reason %q", reason)
	}
}

func TestResolveErrors(t *testing.T) {
	r := newReady(t, testConfig("", nil))
	if _, err := r.Resolve("ghost", [][]float64{{0, 0}}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := r.Submit(submission(t, "m", absNet(), nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve("m", [][]float64{{0, 0}}); !errors.Is(err, ErrNoServing) {
		t.Fatalf("pending-only model: %v", err)
	}
	if _, err := r.Rollback("m"); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("rollback without live: %v", err)
	}
	if _, err := r.Promote("m", 9, 100); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("unknown version: %v", err)
	}
	if _, err := r.Promote("m", 1, 101); err == nil {
		t.Fatal("promote accepted canary_percent 101")
	}
}

// TestCountServeTenant pins the per-tenant per-version accounting: the
// version totals stay the sum over tenants, labels past the cap fold
// into "other", and empty labels count only the totals.
func TestCountServeTenant(t *testing.T) {
	v := &Version{model: "m", seq: 1}
	v.CountServeTenant("acme", 4, 1)
	v.CountServeTenant("acme", 2, 0)
	v.CountServeTenant("beta", 1, 1)
	v.CountServeTenant("", 5, 0) // unattributed: totals only

	if got := v.requests.Load(); got != 4 {
		t.Fatalf("requests = %d, want 4", got)
	}
	tc := v.tenantCounters()
	if len(tc) != 2 {
		t.Fatalf("tenant labels = %d (%v), want 2", len(tc), tc)
	}
	if acme := tc["acme"]; acme.Requests != 2 || acme.Inputs != 6 || acme.Flagged != 1 {
		t.Fatalf("acme counters = %+v", acme)
	}

	// Overflow: labels past the cap land on "other".
	for i := 0; i < maxVersionTenants+10; i++ {
		v.CountServeTenant(fmt.Sprintf("t%03d", i), 1, 0)
	}
	tc = v.tenantCounters()
	if len(tc) > maxVersionTenants+1 {
		t.Fatalf("tenant labels = %d, want <= cap+1 = %d", len(tc), maxVersionTenants+1)
	}
	var reqs int64
	for _, sc := range tc {
		reqs = reqs + sc.Requests
	}
	if reqs != v.requests.Load()-1 { // the one empty-label request has no row
		t.Fatalf("tenant-attributed requests = %d, want %d", reqs, v.requests.Load()-1)
	}
	if tc[overflowTenant].Requests == 0 {
		t.Fatal("overflow tenant absorbed nothing")
	}
}
