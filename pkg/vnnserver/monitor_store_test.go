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
// counted once, and a monitor_fingerprint request resolves it while other
// builds churn the store.
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
	// Keep the monitor most recently used while two other builds churn
	// the capacity-2 caches.
	for _, seed := range []int64{2, 3} {
		b.s.monitors.lookup(first.MonitorFingerprint, true)
		b.build(seed)
	}
	status, resp := b.infer(InferRequest{Fingerprint: first.Fingerprint, MonitorFingerprint: first.MonitorFingerprint})
	if status != http.StatusOK || !resp.MonitorCacheHit {
		t.Fatalf("monitor_fingerprint request after eviction: HTTP %d, %+v", status, resp)
	}
}

// TestMonitorNameCoversWorkload: two workloads share a network and a
// dataset, and their regions differ in one box coordinate, so their
// monitors store the same patterns. Each still gets its own name, and
// each name serves its own workload by fingerprint.
func TestMonitorNameCoversWorkload(t *testing.T) {
	n := newMonitorStoreNode(t, 8)
	var built []InferResponse
	for _, lo := range []float64{-1, -1.001} {
		n.box[0][0] = lo
		built = append(built, n.build(1))
	}
	a, b := built[0], built[1]
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("the two regions are one workload (the scenario under test)")
	}
	var docs [2]json.RawMessage
	for i, resp := range built {
		mon, ok := n.s.monitors.lookup(resp.MonitorFingerprint, false)
		if !ok {
			t.Fatalf("monitor %s not stored", resp.MonitorFingerprint)
		}
		raw, err := vnn.MarshalMonitor(mon)
		if err != nil {
			t.Fatal(err)
		}
		var doc vnn.MonitorDocJSON
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		docs[i] = doc.Monitor
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("the two monitors store different patterns (the scenario under test)")
	}
	if a.MonitorFingerprint == b.MonitorFingerprint {
		t.Fatalf("two workloads share the monitor name %s", a.MonitorFingerprint)
	}
	for _, resp := range built {
		status, got := n.infer(InferRequest{Fingerprint: resp.Fingerprint, MonitorFingerprint: resp.MonitorFingerprint})
		if status != http.StatusOK || !got.MonitorCacheHit || got.MonitorFingerprint != resp.MonitorFingerprint {
			t.Fatalf("workload %s by its monitor %s: HTTP %d, %+v", resp.Fingerprint, resp.MonitorFingerprint, status, got)
		}
	}
}
