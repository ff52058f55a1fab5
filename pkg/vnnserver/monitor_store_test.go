package vnnserver

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/nn"
	"repro/pkg/vnn"
)

// monitorStoreNode is one small-cache server plus the network and
// region every request in these tests serves.
type monitorStoreNode struct {
	t   *testing.T
	s   *Server
	url string
	net json.RawMessage
	box [][2]float64
}

func newMonitorStoreNode(t *testing.T, capacity int) *monitorStoreNode {
	t.Helper()
	net := nn.New(nn.Config{
		Name: "store", InputDim: 3, Hidden: []int{6, 5}, OutputDim: 2,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rand.New(rand.NewSource(91)))
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{CacheEntries: capacity})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Drain(0)
	})
	return &monitorStoreNode{t: t, s: s, url: ts.URL, net: netJSON, box: [][2]float64{{-1, 1}, {-1, 1}, {-1, 1}}}
}

// infer posts req (filling in the node's network and region when it
// names no fingerprint) and returns the status and decoded reply.
func (n *monitorStoreNode) infer(req InferRequest) (int, InferResponse) {
	n.t.Helper()
	if req.Fingerprint == "" {
		req.Network, req.Region = n.net, vnn.RegionSpec{Box: n.box}
	}
	req.Inputs = FloatMatrix{{0.1, -0.2, 0.3}}
	body, err := json.Marshal(req)
	if err != nil {
		n.t.Fatal(err)
	}
	resp, err := http.Post(n.url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		n.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			n.t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// monitorData is a seeded 8-row dataset over the node's box.
func monitorData(seed int64) FloatMatrix {
	rng := rand.New(rand.NewSource(seed))
	data := make(FloatMatrix, 8)
	for i := range data {
		data[i] = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
	}
	return data
}

// build posts a full monitor spec over monitorData(seed).
func (n *monitorStoreNode) build(seed int64) InferResponse {
	n.t.Helper()
	status, resp := n.infer(InferRequest{Monitor: &InferMonitorSpec{Data: monitorData(seed)}})
	if status != http.StatusOK {
		n.t.Fatalf("build %d: HTTP %d", seed, status)
	}
	return resp
}

// TestMonitorImportedThenBuiltSurvivesEviction: a fleet import and a
// local build of the same monitor are one stored artifact under one name,
// so evicting the build's entry cannot orphan the monitor — a
// monitor_fingerprint request still resolves it.
func TestMonitorImportedThenBuiltSurvivesEviction(t *testing.T) {
	a := newMonitorStoreNode(t, 2)
	first := a.build(1)
	b := newMonitorStoreNode(t, 2)
	for _, fp := range []string{first.Fingerprint, first.MonitorFingerprint} {
		exp, err := a.s.ExportEntry(fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.s.ImportEntry(context.Background(), exp); err != nil {
			t.Fatal(err)
		}
	}

	if again := b.build(1); again.MonitorFingerprint != first.MonitorFingerprint {
		t.Fatalf("local build %s, imported %s", again.MonitorFingerprint, first.MonitorFingerprint)
	}
	if got := b.s.Metrics().Infer.Monitors; got != 1 {
		t.Fatalf("infer.monitors = %d after import and build of one monitor, want 1", got)
	}
	// Keep the monitor most recently used while two other builds push the
	// first build's entry out of the capacity-2 caches.
	for _, seed := range []int64{2, 3} {
		b.s.monitors.lookup(first.MonitorFingerprint, true)
		b.build(seed)
	}
	status, resp := b.infer(InferRequest{Fingerprint: first.Fingerprint, MonitorFingerprint: first.MonitorFingerprint})
	if status != http.StatusOK || !resp.MonitorCacheHit {
		t.Fatalf("monitor_fingerprint request after eviction: HTTP %d, %+v", status, resp)
	}
}

// TestMonitorBuildMemoOutlivesStore: a build memo entry whose monitor the
// store has since evicted rebuilds it (a miss), then serves it (a hit).
func TestMonitorBuildMemoOutlivesStore(t *testing.T) {
	n := newMonitorStoreNode(t, 2)
	first := n.build(1)
	cn, ok := n.s.cache.lookup(first.Fingerprint, false)
	if !ok {
		t.Fatal("compile not cached")
	}
	for _, seed := range []int64{2, 3} {
		mon, err := vnn.BuildMonitor(cn, monitorData(seed), vnn.MonitorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n.s.monitors.add(mon.Fingerprint(), mon)
	}
	if _, ok := n.s.monitors.lookup(first.MonitorFingerprint, false); ok {
		t.Fatal("store still holds the first monitor (the scenario under test)")
	}
	for i, wantHit := range []bool{false, true} {
		resp := n.build(1)
		if resp.MonitorFingerprint != first.MonitorFingerprint || resp.MonitorCacheHit != wantHit {
			t.Fatalf("request %d: monitor %s hit=%v, want %s hit=%v",
				i, resp.MonitorFingerprint, resp.MonitorCacheHit, first.MonitorFingerprint, wantHit)
		}
	}
	if _, ok := n.s.monitors.lookup(first.MonitorFingerprint, false); !ok {
		t.Fatal("rebuilt monitor not stored")
	}
}
