package vnnserver_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// rolloutNet is |x1 − x2|: output in [0, 1] over the unit box, so a gate
// threshold of 1.5 proves and 0.5 violates.
func rolloutNet() *nn.Network {
	return &nn.Network{Name: "absdiff", Layers: []*nn.Layer{
		{W: [][]float64{{1, -1}, {-1, 1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
}

// rolloutNetV2 doubles the output — a successor version whose answers are
// trivially distinguishable from rolloutNet's.
func rolloutNetV2() *nn.Network {
	return &nn.Network{Name: "absdiff2", Layers: []*nn.Layer{
		{W: [][]float64{{1, -1}, {-1, 1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{2, 2}}, B: []float64{0}, Act: nn.Identity},
	}}
}

// waitRegistryReady blocks until the server's registry finished its
// (asynchronous) recovery.
func waitRegistryReady(t *testing.T, srv *vnnserver.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Registry().Ready() {
		if time.Now().After(deadline) {
			t.Fatalf("registry never became ready: %s", srv.Registry().ReadyReason())
		}
		time.Sleep(time.Millisecond)
	}
}

func gateAtMost(threshold float64) *vnn.GateSpec {
	return &vnn.GateSpec{Analyses: []vnn.AnalysisSpec{{
		Kind:       vnn.KindVerify,
		Properties: []vnn.PropertySpec{{Kind: "at_most", Output: new(int), Threshold: &threshold}},
	}}}
}

// submitModel posts a synchronous model submission pinned to one worker
// and returns the decided document.
func submitModel(t *testing.T, url, model string, net *nn.Network, gate *vnn.GateSpec, mon *vnnserver.InferMonitorSpec) vnnserver.ModelSubmitResponse {
	t.Helper()
	return submitModelOpts(t, url, model, net, gate, mon, vnnserver.QueryOptions{Workers: 1})
}

// submitModelOpts is submitModel under explicit query options.
func submitModelOpts(t *testing.T, url, model string, net *nn.Network, gate *vnn.GateSpec, mon *vnnserver.InferMonitorSpec, opts vnnserver.QueryOptions) vnnserver.ModelSubmitResponse {
	t.Helper()
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	wait := true
	body, err := json.Marshal(vnnserver.ModelSubmitRequest{
		Model:   model,
		Network: netJSON,
		Region:  vnn.RegionSpec{Box: [][2]float64{{0, 1}, {0, 1}}},
		Options: opts,
		Monitor: mon,
		Gate:    gate,
		Wait:    &wait,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out vnnserver.ModelSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %s: status %d (%+v)", model, resp.StatusCode, out)
	}
	return out
}

func promoteModel(t *testing.T, url, model string, body string) vnnserver.ModelSubmitResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/models/"+model+"/promote", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out vnnserver.ModelSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote %s: status %d (%+v)", model, resp.StatusCode, out)
	}
	return out
}

func modelInfer(t *testing.T, url, model string, inputs [][]float64, out *vnnserver.InferResponse) int {
	t.Helper()
	body, err := json.Marshal(vnnserver.InferRequest{Model: model, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestModelRolloutEndToEnd is the acceptance test of the verified-rollout
// plane: a gate-failing version is rejected and takes no traffic; a
// passing one promotes; a successor canaries deterministically, cuts
// over, and rolls back to bit-identical serving without a single new
// compile.
func TestModelRolloutEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	waitRegistryReady(t, srv)

	// A version whose gate is violated is rejected and never serves.
	rej := submitModel(t, ts.URL, "demo", rolloutNet(), gateAtMost(0.5), nil)
	if rej.State != "rejected" {
		t.Fatalf("violated gate produced state %q", rej.State)
	}
	if rej.Gate == nil || rej.Gate.Pass {
		t.Fatalf("gate decision: %+v", rej.Gate)
	}
	if status := modelInfer(t, ts.URL, "demo", [][]float64{{0.5, 0.5}}, nil); status != http.StatusConflict {
		t.Fatalf("rejected-only model served with status %d, want 409", status)
	}

	// A passing version (with a serving monitor) admits and promotes.
	mon := &vnnserver.InferMonitorSpec{Data: [][]float64{{0.9, 0.1}, {0.1, 0.9}}, Gamma: 0}
	adm := submitModel(t, ts.URL, "demo", rolloutNet(), gateAtMost(1.5), mon)
	if adm.State != "admitted" || adm.Version != 2 {
		t.Fatalf("passing gate: %+v", adm.ModelVersionJSON)
	}
	if adm.Report == nil || len(adm.Report.Analyses) == 0 {
		t.Fatal("submit response carries no gate report")
	}
	promoteModel(t, ts.URL, "demo", `{}`)

	var v2 vnnserver.InferResponse
	if status := modelInfer(t, ts.URL, "demo", [][]float64{{0.9, 0.1}}, &v2); status != http.StatusOK {
		t.Fatalf("live infer status %d", status)
	}
	if v2.Model != "demo" || v2.ModelVersion != 2 || v2.Route != "live" {
		t.Fatalf("serving attribution: %+v", v2)
	}
	if len(v2.Outputs) != 1 || v2.Outputs[0][0] != 0.8 {
		t.Fatalf("v2 output %v, want [[0.8]]", v2.Outputs)
	}
	if len(v2.Verdicts) != 1 {
		t.Fatal("monitored model version returned no verdicts")
	}

	// Successor canaries at 50%: routing is a deterministic function of
	// the input bits, stable across repeats.
	adm3 := submitModel(t, ts.URL, "demo", rolloutNetV2(), gateAtMost(2.5), nil)
	if adm3.State != "admitted" || adm3.Version != 3 {
		t.Fatalf("v3 gate: %+v", adm3.ModelVersionJSON)
	}
	can := promoteModel(t, ts.URL, "demo", `{"canary_percent": 50}`)
	if can.State != "canary" || can.CanaryPercent != 50 {
		t.Fatalf("canary: %+v", can.ModelVersionJSON)
	}
	routed := make(map[int]int) // version → count
	versionFor := make([]int, 40)
	for i := range versionFor {
		in := [][]float64{{float64(i) / 40, 0.5}}
		var ir vnnserver.InferResponse
		if status := modelInfer(t, ts.URL, "demo", in, &ir); status != http.StatusOK {
			t.Fatalf("canary infer %d: status %d", i, status)
		}
		versionFor[i] = ir.ModelVersion
		routed[ir.ModelVersion]++
		var again vnnserver.InferResponse
		if status := modelInfer(t, ts.URL, "demo", in, &again); status != http.StatusOK {
			t.Fatalf("canary re-infer %d: status %d", i, status)
		}
		if again.ModelVersion != ir.ModelVersion || again.Route != ir.Route {
			t.Fatalf("input %d: canary routing flapped (%d/%s then %d/%s)",
				i, ir.ModelVersion, ir.Route, again.ModelVersion, again.Route)
		}
	}
	if routed[2] == 0 || routed[3] == 0 {
		t.Fatalf("50%% canary routed everything one way: %v", routed)
	}

	// Full cutover by an empty body (a plain full promotion), then
	// one-RTT rollback: v2 serves again bit-identically with zero new
	// compiles — both artifacts were warm all along.
	if cut := promoteModel(t, ts.URL, "demo", ""); cut.State != "live" || cut.Version != 3 {
		t.Fatalf("empty-body promote: %+v", cut.ModelVersionJSON)
	}
	var v3 vnnserver.InferResponse
	if status := modelInfer(t, ts.URL, "demo", [][]float64{{0.9, 0.1}}, &v3); status != http.StatusOK {
		t.Fatalf("post-cutover infer status %d", status)
	}
	if v3.ModelVersion != 3 || v3.Outputs[0][0] != 1.6 {
		t.Fatalf("post-cutover serving: version %d outputs %v", v3.ModelVersion, v3.Outputs)
	}

	compilesBefore := compileCount(srv)
	resp, err := http.Post(ts.URL+"/v1/models/demo/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rb vnnserver.ModelSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rb.Version != 2 || rb.State != "live" {
		t.Fatalf("rollback: status %d, %+v", resp.StatusCode, rb.ModelVersionJSON)
	}
	var back vnnserver.InferResponse
	if status := modelInfer(t, ts.URL, "demo", [][]float64{{0.9, 0.1}}, &back); status != http.StatusOK {
		t.Fatalf("post-rollback infer status %d", status)
	}
	if back.ModelVersion != 2 || back.Outputs[0][0] != v2.Outputs[0][0] { // bit-identical
		t.Fatalf("rollback serving: version %d outputs %v, want v2's %v",
			back.ModelVersion, back.Outputs, v2.Outputs)
	}
	if back.Verdicts[0] != v2.Verdicts[0] {
		t.Fatalf("rollback verdict %+v differs from v2's %+v", back.Verdicts[0], v2.Verdicts[0])
	}
	if d := compileCount(srv) - compilesBefore; d != 0 {
		t.Fatalf("rollback triggered %d compiles, want 0 (warm artifacts)", d)
	}

	// The model document tells the whole story.
	mresp, err := http.Get(ts.URL + "/v1/models/demo")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Live         int                    `json:"live"`
		PreviousLive int                    `json:"previous_live"`
		Versions     []vnn.ModelVersionJSON `json:"versions"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	states := []string{}
	for _, v := range doc.Versions {
		states = append(states, v.State)
	}
	if doc.Live != 2 || doc.PreviousLive != 3 ||
		states[0] != "rejected" || states[1] != "live" || states[2] != "retired" {
		t.Fatalf("model doc: live=%d prev=%d states=%v", doc.Live, doc.PreviousLive, states)
	}
	if doc.Versions[1].Requests == 0 || doc.Versions[1].Inputs == 0 {
		t.Fatalf("v2 serving counters empty: %+v", doc.Versions[1])
	}
	var list vnnserver.ModelsResponse
	getJSON(t, ts.URL+"/v1/models", http.StatusOK, &list)
	if len(list.Models) != 1 || list.Models[0].Model != "demo" || list.Models[0].Live != 2 ||
		len(list.Models[0].Versions) != len(doc.Versions) {
		t.Fatalf("model list: %+v", list.Models)
	}

	// Registry metrics surface in both renderings.
	m := serverMetrics(t, ts.URL)
	if !m.Registry.Ready || m.Registry.Models != 1 || len(m.Registry.Versions) != 3 {
		t.Fatalf("registry metrics: %+v", m.Registry)
	}
	promResp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(promResp.Body)
	promResp.Body.Close()
	for _, want := range []string{
		`vnnd_model_version_info{model="demo",version="2",state="live"`,
		`vnnd_model_flagged_total{model="demo",version="2"}`,
		"vnnd_registry_ready 1",
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Fatalf("prometheus rendering missing %q", want)
		}
	}
}

// TestModelSubmitAsyncEvents covers the default async path: 202 with the
// gate job id, SSE progress on /v1/models/{name}/events, terminal result.
func TestModelSubmitAsyncEvents(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	waitRegistryReady(t, srv)

	netJSON, err := vnn.MarshalNetwork(rolloutNet())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(vnnserver.ModelSubmitRequest{
		Model:   "async",
		Network: netJSON,
		Region:  vnn.RegionSpec{Box: [][2]float64{{0, 1}, {0, 1}}},
		Options: vnnserver.QueryOptions{Workers: 1},
		Gate:    gateAtMost(1.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc vnnserver.ModelSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || acc.ID == "" || acc.State != "pending" {
		t.Fatalf("async submit: status %d, %+v", resp.StatusCode, acc)
	}

	ev, err := http.Get(ts.URL + "/v1/models/async/events")
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	gotResult := false
	var final vnnserver.ModelSubmitResponse
	readSSE(t, ev.Body, func(e sseEvent) bool {
		if e.name != "result" {
			return true
		}
		gotResult = true
		if err := json.Unmarshal([]byte(e.data), &final); err != nil {
			t.Fatalf("result event: %v", err)
		}
		return false
	})
	if !gotResult {
		t.Fatal("event stream ended without a result")
	}
	if final.State != "admitted" || final.ID != acc.ID {
		t.Fatalf("terminal event: %+v", final.ModelVersionJSON)
	}

	// The gate left a trace under the job id, rooted at "gate".
	tr, err := http.Get(ts.URL + "/debug/traces/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	var traceDoc struct {
		Root struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&traceDoc); err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if traceDoc.Root.Name != "gate" {
		t.Fatalf("trace root %q, want gate", traceDoc.Root.Name)
	}
}

func TestModelSubmitValidation(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	waitRegistryReady(t, srv)
	netJSON, err := vnn.MarshalNetwork(rolloutNet())
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	region := `{"box":[[0,1],[0,1]]}`
	cases := map[string]string{
		"bad name":     fmt.Sprintf(`{"model":"no spaces","network":%s,"region":%s}`, netJSON, region),
		"no network":   `{"model":"m"}`,
		"empty gate":   fmt.Sprintf(`{"model":"m","network":%s,"region":%s,"gate":{"analyses":[]}}`, netJSON, region),
		"bad gate":     fmt.Sprintf(`{"model":"m","network":%s,"region":%s,"gate":{"analyses":[{"kind":"verify","properties":[{"kind":"at_most","output":0,"threshold":1}]}],"max_flag_rate":2}}`, netJSON, region),
		"bad monitor":  fmt.Sprintf(`{"model":"m","network":%s,"region":%s,"monitor":{"data":[]}}`, netJSON, region),
		"unknown keys": fmt.Sprintf(`{"model":"m","network":%s,"region":%s,"bogus":1}`, netJSON, region),
		// |x0 - x1| = 1 at the nominal point: refused at submit, not by a
		// failed gate later.
		"resilience gate": fmt.Sprintf(`{"model":"m","network":%s,"region":%s,"gate":{"analyses":[{"kind":"verify","properties":[{"kind":"resilience","x0":[1,0],"output":0,"threshold":0.5}]}]}}`, netJSON, region),
	}
	for name, body := range cases {
		if status := post(body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}

	// Infer-side validation: unknown model 404; model + explicit workload
	// conflict 400; query/body disagreement 400.
	if status := modelInfer(t, ts.URL, "ghost", [][]float64{{0, 0}}, nil); status != http.StatusNotFound {
		t.Fatalf("unknown model infer: status %d, want 404", status)
	}
	conflict, _ := json.Marshal(vnnserver.InferRequest{
		Model: "m", Network: netJSON, Inputs: [][]float64{{0, 0}},
	})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(conflict))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("model+network conflict: status %d, want 400", resp.StatusCode)
	}
	disagree, _ := json.Marshal(vnnserver.InferRequest{Model: "a", Inputs: [][]float64{{0, 0}}})
	resp, err = http.Post(ts.URL+"/v1/infer?model=b", "application/json", bytes.NewReader(disagree))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("query/body model disagreement: status %d, want 400", resp.StatusCode)
	}
}

// TestModelRestartRecovery pins the persistence contract: a server
// restarted onto the same -data-dir recovers its serving table and
// answers ?model= requests bit-identically, without re-running any gate.
func TestModelRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, vnnserver.Config{DataDir: dir})
	waitRegistryReady(t, srv1)

	mon := &vnnserver.InferMonitorSpec{Data: [][]float64{{0.9, 0.1}, {0.1, 0.9}}, Gamma: 0}
	submitModel(t, ts1.URL, "demo", rolloutNet(), gateAtMost(1.5), mon)
	promoteModel(t, ts1.URL, "demo", `{}`)
	// A tightened version with no worker pin: its recompile must carry the
	// gate compile's bounds bit for bit.
	tight := submitModelOpts(t, ts1.URL, "tight", tightNet(), nil, nil, vnnserver.QueryOptions{Tighten: true})
	promoteModel(t, ts1.URL, "tight", `{}`)
	tightBefore := getExport(t, ts1.URL, tight.Fingerprint)
	var before vnnserver.InferResponse
	if status := modelInfer(t, ts1.URL, "demo", [][]float64{{0.9, 0.1}}, &before); status != http.StatusOK {
		t.Fatalf("pre-restart infer status %d", status)
	}
	srv1.Drain(time.Second)
	ts1.Close()

	srv2, ts2 := newTestServer(t, vnnserver.Config{DataDir: dir})
	waitRegistryReady(t, srv2)
	var after vnnserver.InferResponse
	if status := modelInfer(t, ts2.URL, "demo", [][]float64{{0.9, 0.1}}, &after); status != http.StatusOK {
		t.Fatalf("post-restart infer status %d", status)
	}
	if after.ModelVersion != before.ModelVersion || after.Route != "live" {
		t.Fatalf("recovered routing: %+v", after)
	}
	if after.Outputs[0][0] != before.Outputs[0][0] { // bit-identical recompile
		t.Fatalf("recovered output %v, want %v", after.Outputs, before.Outputs)
	}
	if len(after.Verdicts) != 1 || after.Verdicts[0] != before.Verdicts[0] {
		t.Fatalf("recovered monitor verdicts %+v, want %+v", after.Verdicts, before.Verdicts)
	}
	if !bytes.Equal(getExport(t, ts2.URL, tight.Fingerprint), tightBefore) {
		t.Fatal("recovered tightened artifact differs from the one the gate compiled")
	}
}

// TestModelSubmitNotReadyReleasesAdmission: a data dir whose snapshot has
// a foreign schema parks the registry not-ready. A submission, sync or
// async, is admitted, refused by Submit and answered 503 with the
// recovery failure; the admission token and the async drain slot are
// handed back, and nothing is registered.
func TestModelSubmitNotReadyReleasesAdmission(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), []byte(`{"schema":"bogus/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, vnnserver.Config{DataDir: dir})
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(srv.Registry().ReadyReason(), "recovery failed") {
		if time.Now().After(deadline) {
			t.Fatalf("registry did not park not-ready: %q", srv.Registry().ReadyReason())
		}
		time.Sleep(time.Millisecond)
	}
	netJSON, err := vnn.MarshalNetwork(rolloutNet())
	if err != nil {
		t.Fatal(err)
	}
	wait := true
	for _, w := range []*bool{&wait, nil} {
		body, err := json.Marshal(vnnserver.ModelSubmitRequest{
			Model:   "demo",
			Network: netJSON,
			Region:  vnn.RegionSpec{Box: [][2]float64{{0, 1}, {0, 1}}},
			Gate:    gateAtMost(1.5),
			Wait:    w,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(out.Error, "registry recovery failed") {
			t.Fatalf("wait=%v: status %d, error %q", w != nil, resp.StatusCode, out.Error)
		}
	}
	if n := srv.Metrics().Scheduler.Admitted; n != 0 {
		t.Fatalf("%d admission tokens outstanding", n)
	}
	if docs := srv.Registry().Models(); len(docs) != 0 {
		t.Fatalf("a refused submission registered %+v", docs)
	}
	drained := make(chan struct{})
	go func() {
		srv.Drain(0) // hangs on the waitgroup if the async slot leaked
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}
}

// tightNet is a 2→12→10→8→1 ReLU net with many unstable neurons over
// [0, 1]², so LP tightening has real work on it.
func tightNet() *nn.Network {
	return nn.New(nn.Config{
		Name: "tight", InputDim: 2, Hidden: []int{12, 10, 8}, OutputDim: 1,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rand.New(rand.NewSource(70)))
}

// TestModelRecoveryIgnoresLegacyWorkers: snapshots written before the
// worker count left compilation carry a "workers" field on each version.
// Such a live tightened version recovers under its fingerprint with the
// artifact a fresh compile gives, serves, and the recovery save drops the
// field.
func TestModelRecoveryIgnoresLegacyWorkers(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, vnnserver.Config{DataDir: dir})
	waitRegistryReady(t, srv1)
	sub := submitModelOpts(t, ts1.URL, "tight", tightNet(), nil, nil, vnnserver.QueryOptions{Tighten: true})
	promoteModel(t, ts1.URL, "tight", `{}`)
	want := getExport(t, ts1.URL, sub.Fingerprint)
	srv1.Drain(time.Second)
	ts1.Close()

	path := filepath.Join(dir, "registry.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	v := snap["models"].([]any)[0].(map[string]any)["versions"].([]any)[0].(map[string]any)
	if v["state"] != "live" || v["tighten"] != true {
		t.Fatalf("snapshot version %v, want a live tightened one", v)
	}
	v["workers"] = 3
	if raw, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, vnnserver.Config{DataDir: dir})
	waitRegistryReady(t, srv2)
	var out vnnserver.InferResponse
	if status := modelInfer(t, ts2.URL, "tight", [][]float64{{0.5, 0.5}}, &out); status != http.StatusOK {
		t.Fatalf("post-restart infer status %d", status)
	}
	if out.Fingerprint != sub.Fingerprint || out.Route != "live" {
		t.Fatalf("recovered %+v, want live under %s", out, sub.Fingerprint)
	}
	if !bytes.Equal(getExport(t, ts2.URL, sub.Fingerprint), want) {
		t.Fatal("recovered artifact differs from the gate's compile")
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(saved, []byte(`"workers"`)) {
		t.Fatalf("recovery save kept the legacy worker count:\n%s", saved)
	}
}

// TestReadyzLivenessSplit pins the health split: /readyz tracks registry
// recovery and drain, /healthz answers 200 throughout.
func TestReadyzLivenessSplit(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	waitRegistryReady(t, srv)

	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		doc := map[string]any{}
		json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc
	}
	if status, doc := get("/readyz"); status != http.StatusOK || doc["ready"] != true {
		t.Fatalf("ready server: /readyz %d %v", status, doc)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatalf("ready server: /healthz %d", status)
	}

	srv.Drain(0)
	if status, doc := get("/readyz"); status != http.StatusServiceUnavailable || doc["ready"] != false {
		t.Fatalf("draining server: /readyz %d %v", status, doc)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatalf("draining server: /healthz %d (liveness must survive drain)", status)
	}
}

// TestWorkloadsIndex pins GET /v1/workloads: every completed compile and
// monitor artifact appears with kind, size and age.
func TestWorkloadsIndex(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	waitRegistryReady(t, srv)
	mon := &vnnserver.InferMonitorSpec{Data: [][]float64{{0.9, 0.1}, {0.1, 0.9}}, Gamma: 0}
	sub := submitModel(t, ts.URL, "demo", rolloutNet(), gateAtMost(1.5), mon)

	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var idx vnnserver.WorkloadsResponse
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if idx.Count != len(idx.Workloads) || idx.Count < 2 {
		t.Fatalf("index: %+v", idx)
	}
	kinds := map[string]string{}
	for _, w := range idx.Workloads {
		if w.Bytes <= 0 || w.AgeMS < 0 {
			t.Fatalf("entry %+v has empty accounting", w)
		}
		kinds[w.Fingerprint] = w.Kind
	}
	if kinds[sub.Fingerprint] != "compile" {
		t.Fatalf("compile workload %s missing from index: %v", sub.Fingerprint, kinds)
	}
	foundMonitor := false
	for _, k := range kinds {
		if k == "monitor" {
			foundMonitor = true
		}
	}
	if !foundMonitor {
		t.Fatalf("monitor artifact missing from index: %v", kinds)
	}

	// Every index row names an exportable artifact, and the monitor rows
	// are exactly the monitors the fleet list offers: one name per monitor.
	var indexMonitors, fleetMonitors []string
	for _, w := range idx.Workloads {
		getExport(t, ts.URL, w.Fingerprint)
		if w.Kind == "monitor" {
			indexMonitors = append(indexMonitors, w.Fingerprint)
		}
	}
	var list struct {
		Fingerprints []string `json:"fingerprints"`
	}
	getJSON(t, ts.URL+"/v1/fleet/fingerprints", http.StatusOK, &list)
	for _, fp := range list.Fingerprints {
		if strings.HasPrefix(fp, "vnnm1-") {
			fleetMonitors = append(fleetMonitors, fp)
		}
	}
	sort.Strings(fleetMonitors)
	if !reflect.DeepEqual(indexMonitors, fleetMonitors) {
		t.Fatalf("index monitors %v, fleet list monitors %v", indexMonitors, fleetMonitors)
	}
}
