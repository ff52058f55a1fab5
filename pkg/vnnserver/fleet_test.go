package vnnserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/nn"
	"repro/pkg/vnn"
	"repro/pkg/vnnfleet"
	"repro/pkg/vnnserver"
)

// boxVerifyBody marshals a verify request over the infer tests' box
// region (the named case-study regions don't fit inferNet's dims).
func boxVerifyBody(t *testing.T, net *vnn.Network) []byte {
	t.Helper()
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(vnnserver.VerifyRequest{
		Network:    netJSON,
		Region:     vnn.RegionSpec{Box: inferBox(net.InputDim())},
		Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// byFingerprintBody builds an infer request that names cached artifacts
// instead of shipping the network.
func byFingerprintBody(t *testing.T, fp, monFP string, inputs [][]float64) []byte {
	t.Helper()
	body, err := json.Marshal(vnnserver.InferRequest{
		Fingerprint:        fp,
		MonitorFingerprint: monFP,
		Inputs:             inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFleetConvergence is the fleet plane's acceptance contract: three
// nodes with disjoint monitored workloads converge, via pairwise
// reconcile rounds, to one compile per distinct fingerprint fleet-wide
// (the nodes' vnnd_compile_seconds counts sum to the distinct
// workloads), and every node then serves every workload by fingerprint
// with bit-identical outputs and verdicts — zero local compiles on the
// nodes that pulled.
func TestFleetConvergence(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(77))
	probe := randRows(rng, 8, 6, 1)

	srvs := make([]*vnnserver.Server, nodes)
	urls := make([]string, nodes)
	for i := range srvs {
		srv, ts := newTestServer(t, vnnserver.Config{})
		srvs[i], urls[i] = srv, ts.URL
	}
	// fleetCompiles sums every node's own compile count.
	fleetCompiles := func() (n int64) {
		for _, srv := range srvs {
			n += compileCount(srv)
		}
		return n
	}

	// Phase 1: disjoint workloads — node k compiles (and monitors) only
	// its own network.
	type workload struct {
		fp, monFP string
		resp      vnnserver.InferResponse
	}
	wls := make([]workload, nodes)
	for k := range wls {
		net := inferNet(int64(100 + k))
		dataset := randRows(rng, 32, net.InputDim(), 1)
		body := inferBody(t, net, probe, &vnnserver.InferMonitorSpec{Data: dataset, Gamma: 1})
		if status := postInfer(t, urls[k], body, &wls[k].resp); status != http.StatusOK {
			t.Fatalf("node %d infer: HTTP %d", k, status)
		}
		wls[k].fp, wls[k].monFP = wls[k].resp.Fingerprint, wls[k].resp.MonitorFingerprint
		if wls[k].monFP == "" {
			t.Fatalf("node %d response has no monitor fingerprint", k)
		}
	}
	if d := fleetCompiles(); d != nodes {
		t.Fatalf("phase 1 performed %d compiles, want %d", d, nodes)
	}

	// Phase 2: full-mesh reconcile. Compiles sort before monitors within
	// a round, so one sweep converges.
	ctx := context.Background()
	for i := range srvs {
		for j := range srvs {
			if i == j {
				continue
			}
			rs, err := srvs[i].Fleet().ReconcileOnce(ctx, urls[j])
			if err != nil {
				t.Fatalf("node %d pull from node %d: %v", i, j, err)
			}
			if rs.Rejected != 0 {
				t.Fatalf("node %d pull from node %d rejected %d entries", i, j, rs.Rejected)
			}
		}
	}

	// Convergence invariant: replication added zero compiles anywhere,
	// and each node still counts exactly its own compile miss.
	if d := fleetCompiles(); d != nodes {
		t.Fatalf("fleet performed %d compiles for %d distinct workloads", d, nodes)
	}
	for i, srv := range srvs {
		st := srv.Metrics().Cache
		if st.Misses != 1 {
			t.Fatalf("node %d compile cache misses = %d, want 1 (only its own)", i, st.Misses)
		}
		if st.Size != nodes {
			t.Fatalf("node %d caches %d compiles, want %d", i, st.Size, nodes)
		}
		if st.Bytes <= 0 {
			t.Fatalf("node %d reports %d cache bytes", i, st.Bytes)
		}
		fs := srv.Fleet().Stats()
		if fs.EntriesPulled != int64(2*(nodes-1)) { // a compile and a monitor from each sibling
			t.Fatalf("node %d pulled %d entries, want %d", i, fs.EntriesPulled, 2*(nodes-1))
		}
	}

	// Phase 3: overlapping workloads — every node answers every workload
	// by fingerprint, bit-identical to the origin node's answer, without
	// touching a compile anywhere.
	for i := range srvs {
		for k, wl := range wls {
			var got vnnserver.InferResponse
			body := byFingerprintBody(t, wl.fp, wl.monFP, probe)
			if status := postInfer(t, urls[i], body, &got); status != http.StatusOK {
				t.Fatalf("node %d workload %d by-fingerprint infer: HTTP %d", i, k, status)
			}
			if !got.MonitorCacheHit {
				t.Fatalf("node %d workload %d did not hit the monitor cache", i, k)
			}
			want := wl.resp
			for r := range want.Outputs {
				for c := range want.Outputs[r] {
					if got.Outputs[r][c] != want.Outputs[r][c] {
						t.Fatalf("node %d workload %d output[%d][%d] = %v, origin %v",
							i, k, r, c, got.Outputs[r][c], want.Outputs[r][c])
					}
				}
			}
			if got.Flagged != want.Flagged || len(got.Verdicts) != len(want.Verdicts) {
				t.Fatalf("node %d workload %d verdicts drifted", i, k)
			}
			for v := range want.Verdicts {
				if got.Verdicts[v] != want.Verdicts[v] {
					t.Fatalf("node %d workload %d verdict %d = %+v, origin %+v",
						i, k, v, got.Verdicts[v], want.Verdicts[v])
				}
			}
		}
	}
	if d := fleetCompiles(); d != nodes {
		t.Fatalf("serving replicated workloads performed %d compiles, want %d", d, nodes)
	}
}

// corruptingProxy forwards to target, tampering with workload-export
// responses: a network bias gains an element, so the re-fingerprint on
// import must fail.
func corruptingProxy(t *testing.T, target string) *httptest.Server {
	t.Helper()
	tu, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(tu)
	rp.ModifyResponse = func(resp *http.Response) error {
		if !strings.HasPrefix(resp.Request.URL.Path, "/v1/workloads/") {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		body = bytes.Replace(body, []byte(`"b":[`), []byte(`"b":[0.125,`), 1)
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", "")
		return nil
	}
	proxy := httptest.NewServer(rp)
	t.Cleanup(proxy.Close)
	return proxy
}

// TestFleetRejectsCorruptedPull: a payload corrupted in transit fails
// the importer's fingerprint re-verification and never enters the
// follower's caches.
func TestFleetRejectsCorruptedPull(t *testing.T) {
	leader, lts := newTestServer(t, vnnserver.Config{})
	follower, _ := newTestServer(t, vnnserver.Config{})

	net := inferNet(200)
	var ir vnnserver.InferResponse
	if status := postInfer(t, lts.URL, inferBody(t, net, randRows(rand.New(rand.NewSource(1)), 4, net.InputDim(), 1), nil), &ir); status != http.StatusOK {
		t.Fatalf("prime leader: HTTP %d", status)
	}
	// Unmonitored infer does not compile; prime the compile cache through
	// a verify call so there is a replicable entry.
	if status := postVerify(t, lts.URL, boxVerifyBody(t, inferNet(200)), nil); status != http.StatusOK {
		t.Fatalf("prime leader compile: HTTP %d", status)
	}
	if len(leader.FleetFingerprints()) == 0 {
		t.Fatal("leader has nothing to replicate")
	}

	proxy := corruptingProxy(t, lts.URL)
	rs, err := follower.Fleet().ReconcileOnce(context.Background(), proxy.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rejected == 0 || rs.Pulled != 0 {
		t.Fatalf("round stats %+v, want every pull rejected", rs)
	}
	if n := follower.Metrics().Cache.Size; n != 0 {
		t.Fatalf("follower cached %d corrupted entries", n)
	}
	if st := follower.Fleet().Stats(); st.PullRejected == 0 {
		t.Fatalf("rejections not counted: %+v", st)
	}
}

// TestFleetRejectsContentOnlyMonitorName: a peer that still names a
// monitor by its content alone (vnnm1- over the patterns, the name before
// it covered the workload) offers a monitor whose name does not verify.
// The import counts as rejected and stores nothing; the compile still
// replicates.
func TestFleetRejectsContentOnlyMonitorName(t *testing.T) {
	_, lts := newTestServer(t, vnnserver.Config{})
	follower, fts := newTestServer(t, vnnserver.Config{})
	net := inferNet(210)
	rng := rand.New(rand.NewSource(3))
	body := inferBody(t, net, randRows(rng, 2, net.InputDim(), 1), &vnnserver.InferMonitorSpec{Data: randRows(rng, 16, net.InputDim(), 1)})
	var ir vnnserver.InferResponse
	if status := postInfer(t, lts.URL, body, &ir); status != http.StatusOK {
		t.Fatalf("prime leader: HTTP %d", status)
	}
	var doc vnn.MonitorDocJSON
	if err := json.Unmarshal(getExportDoc(t, lts.URL, ir.MonitorFingerprint).Monitor, &doc); err != nil {
		t.Fatal(err)
	}
	content, err := monitor.Unmarshal(doc.Monitor, net)
	if err != nil {
		t.Fatal(err)
	}
	oldName := content.Fingerprint()

	// The old peer: the leader's entries with the monitor renamed.
	monExp := getExportDoc(t, lts.URL, ir.MonitorFingerprint)
	monExp.Fingerprint = oldName
	routes := map[string]any{
		"/v1/fleet/fingerprints":          map[string][]string{"fingerprints": {ir.Fingerprint, oldName}},
		"/v1/workloads/" + ir.Fingerprint: getExportDoc(t, lts.URL, ir.Fingerprint),
		"/v1/workloads/" + oldName:        monExp,
	}
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out, ok := routes[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(out)
	}))
	t.Cleanup(old.Close)

	rs, err := follower.Fleet().ReconcileOnce(context.Background(), old.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Pulled != 1 || rs.Rejected != 1 {
		t.Fatalf("round stats %+v, want the compile pulled and the monitor rejected", rs)
	}
	if got := follower.Metrics().Infer.Monitors; got != 0 {
		t.Fatalf("follower stores %d monitors", got)
	}
	var got vnnserver.InferResponse
	if status := postInfer(t, fts.URL, byFingerprintBody(t, ir.Fingerprint, "", [][]float64{randRows(rng, 1, net.InputDim(), 1)[0]}), &got); status != http.StatusOK {
		t.Fatalf("replicated compile by fingerprint: HTTP %d", status)
	}
}

// TestFleetDrain: a draining node neither starts rounds, serves fleet
// requests, nor accepts imports — no new inserts after drain starts.
func TestFleetDrain(t *testing.T) {
	leader, lts := newTestServer(t, vnnserver.Config{})
	follower, fts := newTestServer(t, vnnserver.Config{})

	if status := postVerify(t, lts.URL, boxVerifyBody(t, inferNet(300)), nil); status != http.StatusOK {
		t.Fatalf("prime leader: HTTP %d", status)
	}

	follower.Drain(0)
	if _, err := follower.Fleet().ReconcileOnce(context.Background(), lts.URL); !errors.Is(err, vnnfleet.ErrDraining) {
		t.Fatalf("draining follower started a round: %v", err)
	}
	exp, err := leader.ExportEntry(leader.FleetFingerprints()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ImportEntry(context.Background(), exp); !errors.Is(err, vnnfleet.ErrDraining) {
		t.Fatalf("draining follower accepted an import: %v", err)
	}
	if follower.Metrics().Cache.Size != 0 {
		t.Fatal("entry inserted after drain started")
	}

	// A draining node's fleet endpoints answer 503.
	leader.Drain(0)
	resp, err := http.Get(lts.URL + "/v1/fleet/fingerprints")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining list endpoint: HTTP %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(fts.URL + "/v1/workloads/vnn1-anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining export endpoint: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestFleetExportEndpoint pins the export wire contract: cached
// fingerprints serve their canonical document, unknown ones 404.
func TestFleetExportEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	if status := postVerify(t, ts.URL, boxVerifyBody(t, inferNet(400)), nil); status != http.StatusOK {
		t.Fatalf("prime: HTTP %d", status)
	}
	fps := srv.FleetFingerprints()
	if len(fps) != 1 {
		t.Fatalf("fingerprints %v, want one compile", fps)
	}

	resp, err := http.Get(ts.URL + "/v1/workloads/" + fps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: HTTP %d", resp.StatusCode)
	}
	var exp vnnfleet.WorkloadExport
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	if exp.Fingerprint != fps[0] || exp.Kind != vnnfleet.KindCompile || len(exp.Compiled) == 0 {
		t.Fatalf("export %+v malformed", exp)
	}
	// The document round-trips through the public importer.
	if _, fp, err := vnn.UnmarshalCompiled(exp.Compiled); err != nil || fp != fps[0] {
		t.Fatalf("exported document does not import: fp=%s err=%v", fp, err)
	}

	resp, err = http.Get(ts.URL + "/v1/workloads/vnn1-unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown export: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestFleetExportIndependentOfWorkers: the worker count is a search
// option, not a compile input, so two nodes that compile one tightened
// workload at different worker counts hold the same artifact — one
// fingerprint, byte-identical exports.
func TestFleetExportIndependentOfWorkers(t *testing.T) {
	net := nn.New(nn.Config{
		Name: "workers", InputDim: 6, Hidden: []int{12, 10, 8}, OutputDim: 3,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rand.New(rand.NewSource(70)))
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	var exports [][]byte
	fp := ""
	for _, workers := range []int{1, 3} {
		_, ts := newTestServer(t, vnnserver.Config{})
		body, err := json.Marshal(vnnserver.VerifyRequest{
			Network:    netJSON,
			Region:     vnn.RegionSpec{Box: inferBox(6)},
			Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{0}}},
			Options:    vnnserver.QueryOptions{Tighten: true, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		var vr vnnserver.VerifyResponse
		if status := postVerify(t, ts.URL, body, &vr); status != http.StatusOK {
			t.Fatalf("workers %d: HTTP %d", workers, status)
		}
		if fp == "" {
			fp = vr.Fingerprint
		} else if vr.Fingerprint != fp {
			t.Fatalf("workers %d: fingerprint %s, want %s", workers, vr.Fingerprint, fp)
		}
		exports = append(exports, getExport(t, ts.URL, fp))
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatal("a tightened workload compiled at workers 1 and workers 3 exports different artifacts")
	}
}

// getExport fetches a cached workload's export document, byte for byte.
// getExportDoc is getExport decoded.
func getExportDoc(t *testing.T, url, fp string) *vnnfleet.WorkloadExport {
	t.Helper()
	var exp vnnfleet.WorkloadExport
	if err := json.Unmarshal(getExport(t, url, fp), &exp); err != nil {
		t.Fatal(err)
	}
	return &exp
}

func getExport(t *testing.T, url, fp string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/workloads/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export %s: HTTP %d, %v", fp, resp.StatusCode, err)
	}
	return doc
}
