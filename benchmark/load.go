package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// window is what one timed stretch of load produced.
type window struct {
	start time.Time
	// ops holds the send and completion time, in seconds from start, of
	// every operation that succeeded and passed its check.
	ops       [][2]float64
	latMS     []float64 // their latencies, sorted
	attempted int
	failed    int
	wallS     float64 // start to the last completion
	firstErr  error
	t         *tally
}

// generator sends a workload's bodies to one vnnd over a fixed set of
// keep-alive connections, one per client. It is a closed loop: a client
// sends its next request when the reply to the last one has been read and
// checked, as a certification client or a planner loop would.
type generator struct {
	wl     *workload
	url    string
	client *http.Client
	next   atomic.Int64 // index of the next operation, shared by the clients
}

func newGenerator(wl *workload, base string) *generator {
	return &generator{
		wl:  wl,
		url: base + wl.route,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: wl.clients,
			MaxConnsPerHost:     wl.clients,
		}},
	}
}

// post sends one body and returns the reply once it is fully read.
func (g *generator) post(body []byte) ([]byte, error) {
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", g.wl.route, resp.StatusCode, reply)
	}
	return reply, nil
}

// run drives the clients until the time is up, maxOps operations have been
// started (0: no such limit) or a send-once workload runs out of bodies.
// Requests in flight at the deadline complete and count. With a recorder,
// every request leaves a span.
func (g *generator) run(seconds float64, maxOps int, rec *recorder) *window {
	start := time.Now()
	win := &window{start: start, t: newTally()}
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	first := g.next.Load()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < g.wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := g.next.Add(1) - 1
				if maxOps > 0 && op-first >= int64(maxOps) {
					return
				}
				if g.wl.once && op >= int64(len(g.wl.bodies)) {
					return
				}
				i := int(op % int64(len(g.wl.bodies)))
				id := rec.start("http "+g.wl.route, 0, int(op))
				sent := time.Now()
				reply, err := g.post(g.wl.bodies[i])
				done := time.Now()
				rec.end(id)
				if err == nil {
					err = g.wl.checkReply(i, reply, win.t)
				}
				mu.Lock()
				win.attempted++
				if err != nil {
					win.failed++
					if win.firstErr == nil {
						win.firstErr = err
					}
				} else {
					win.ops = append(win.ops, [2]float64{sent.Sub(start).Seconds(), done.Sub(start).Seconds()})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.wallS = time.Since(start).Seconds()
	for _, op := range win.ops {
		win.latMS = append(win.latMS, (op[1]-op[0])*1e3)
	}
	sort.Float64s(win.latMS)
	return win
}

// sliceWork cuts the first span seconds of the window into n equal slices
// and returns the operations completed in each. An operation counts toward
// a slice in proportion to the share of its duration that falls inside it,
// so a slice that holds only a few long operations still gets a smooth
// count rather than 2, 3 or 4.
func (w *window) sliceWork(n int, span float64) []float64 {
	work := make([]float64, n)
	width := span / float64(n)
	for _, op := range w.ops {
		for k := range work {
			lo, hi := math.Max(op[0], float64(k)*width), math.Min(op[1], float64(k+1)*width)
			if hi > lo {
				work[k] += (hi - lo) / (op[1] - op[0])
			}
		}
	}
	return work
}

// sliceLatency is the median, over the same n slices, of the p-quantile of
// the operations that completed in each: what the tail looks like in a
// typical stretch of the window, whatever one bad stretch did.
func (w *window) sliceLatency(n int, span, p float64) float64 {
	perSlice := make([][]float64, n)
	for _, op := range w.ops {
		if k := int(op[1] / span * float64(n)); k < n {
			perSlice[k] = append(perSlice[k], (op[1]-op[0])*1e3)
		}
	}
	var tails []float64
	for _, lat := range perSlice {
		if len(lat) > 0 {
			sort.Float64s(lat)
			tails = append(tails, percentile(lat, p))
		}
	}
	return median(tails)
}

// latency is the p-quantile over every operation attempted: a failed one
// counts as slower than any that succeeded, so it pushes the percentile up
// instead of dropping out of it.
func (w *window) latency(p float64) float64 {
	if len(w.latMS) == 0 {
		return w.wallS * 1e3
	}
	padded := append([]float64(nil), w.latMS...)
	for i := 0; i < w.failed; i++ {
		padded = append(padded, w.wallS*1e3)
	}
	return percentile(padded, p)
}
