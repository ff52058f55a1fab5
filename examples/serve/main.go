// Serve: boot the vnnd verification service in-process, fire a burst of
// concurrent queries at it — many identical, a few distinct — and show
// what the service layer adds over bare pkg/vnn: the identical workloads
// collapse into ONE compile (fingerprinted cache + singleflight), proven
// here by the server's own encode/tighten pass totals (Metrics deltas),
// which the service tests pin too.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

const (
	identicalClients = 12
	distinctClients  = 4
)

func main() {
	log.SetFlags(0)

	// Boot the service on a loopback port, exactly as cmd/vnnd would.
	srv := vnnserver.New(vnnserver.Config{CacheEntries: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("vnnd serving on %s\n", base)

	// One shared workload (identical fingerprint for every client) and a
	// few distinct ones (different weights => different fingerprints).
	shared := requestBody(1)
	distinct := make([][]byte, distinctClients)
	for i := range distinct {
		distinct[i] = requestBody(int64(100 + i))
	}

	before := srv.Metrics()

	var wg sync.WaitGroup
	var mu sync.Mutex
	hits, misses := 0, 0
	post := func(body []byte) {
		defer wg.Done()
		resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			log.Fatalf("verify: %s: %s", resp.Status, msg)
		}
		var vr vnnserver.VerifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			log.Fatal(err)
		}
		mu.Lock()
		if vr.CacheHit {
			hits++
		} else {
			misses++
		}
		mu.Unlock()
	}

	// All clients at once: 12 identical + 4 distinct concurrent requests.
	wg.Add(identicalClients + distinctClients)
	for i := 0; i < identicalClients; i++ {
		go post(shared)
	}
	for _, body := range distinct {
		go post(body)
	}
	wg.Wait()

	fmt.Printf("\n%d concurrent requests (%d identical + %d distinct):\n",
		identicalClients+distinctClients, identicalClients, distinctClients)
	fmt.Printf("  cache hits   %d\n  cache misses %d (one compile per distinct workload)\n", hits, misses)
	after := srv.Metrics()
	fmt.Printf("  encode passes  +%d\n  tighten passes +%d\n",
		after.EncodePasses-before.EncodePasses, after.TightenPasses-before.TightenPasses)

	// The service's own view of the same numbers.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	var m vnnserver.Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n/metrics: queries=%d cache=%d/%d (hits/misses) evictions=%d queue_active=%d\n",
		m.Queries, m.Cache.Hits, m.Cache.Misses, m.Cache.Evictions, m.Scheduler.Active)

	checkMetricsKeys(raw)

	srv.Drain(0)
	httpSrv.Close()
}

// checkMetricsKeys asserts the /metrics document against the committed
// key-path fixture — the same list the CI smokes (check_metrics.py) and
// the cmd/vnnd test pin — so a renamed or dropped field fails here
// before any dashboard notices. Skipped when run outside the repo root.
func checkMetricsKeys(raw []byte) {
	fixture := filepath.Join("cmd", "vnnd", "testdata", "metrics-keys.txt")
	data, err := os.ReadFile(fixture)
	if err != nil {
		fmt.Printf("\n(%s not found; skipping metrics contract check)\n", fixture)
		return
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		log.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(data), "\n") {
		path := strings.TrimSpace(line)
		if path == "" || strings.HasPrefix(path, "#") {
			continue
		}
		node := any(doc)
		for _, seg := range strings.Split(path, ".") {
			obj, ok := node.(map[string]any)
			if !ok {
				log.Fatalf("metrics key path %q: segment %q is not an object", path, seg)
			}
			if node, ok = obj[seg]; !ok {
				log.Fatalf("metrics document is missing key path %q", path)
			}
		}
		checked++
	}
	fmt.Printf("\nmetrics contract: all %d fixture key paths present\n", checked)
}

// requestBody builds a verify request for a small width-10 predictor
// seeded by seed: same seed, same canonical bytes, same fingerprint.
func requestBody(seed int64) []byte {
	pred := vnn.NewPredictor(1, 10, 1, seed)
	netJSON, err := vnn.MarshalNetwork(pred.Net)
	if err != nil {
		log.Fatal(err)
	}
	req := vnnserver.VerifyRequest{
		Network: netJSON,
		Region:  vnn.RegionSpec{Name: "left_occupied"},
		Properties: []vnn.PropertySpec{
			{Kind: "max", Outputs: pred.MuLatOutputs()},
		},
		Options: vnnserver.QueryOptions{Tighten: true, Workers: 1},
	}
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	return body
}
