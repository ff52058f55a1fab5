package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTree(t *testing.T) {
	r := NewRecorder(RecorderOptions{Ring: 8})
	tr := r.Start("/v1/verify", "q00000001")
	if tr.ID() != "q00000001" {
		t.Fatalf("id = %q", tr.ID())
	}
	root := tr.Root()
	q := root.Child("queue")
	time.Sleep(time.Millisecond)
	q.End()
	c := root.Child("cache")
	c.SetAttr("hit", false)
	comp := c.Child("compile")
	comp.ChildTimed("tighten", 500*time.Microsecond)
	comp.ChildTimed("encode", 200*time.Microsecond)
	comp.End()
	c.End()
	s := root.Child("solve")
	s.SetAttr("nodes", 17)
	time.Sleep(time.Millisecond)
	s.End()
	tr.Finish()

	j := tr.JSON()
	if j.ID != "q00000001" || j.Route != "/v1/verify" {
		t.Fatalf("header: %+v", j)
	}
	if len(j.Root.Children) != 3 {
		t.Fatalf("root children = %d, want 3", len(j.Root.Children))
	}
	names := []string{j.Root.Children[0].Name, j.Root.Children[1].Name, j.Root.Children[2].Name}
	if names[0] != "queue" || names[1] != "cache" || names[2] != "solve" {
		t.Fatalf("child order: %v", names)
	}
	// Durations internally consistent: children sum <= root.
	var sum float64
	for _, c := range j.Root.Children {
		sum += c.DurationUS
	}
	if sum > j.Root.DurationUS {
		t.Fatalf("children sum %.1fus > root %.1fus", sum, j.Root.DurationUS)
	}
	cache := j.Root.Children[1]
	if cache.Attrs["hit"] != false {
		t.Fatalf("cache attrs: %v", cache.Attrs)
	}
	if len(cache.Children) != 1 || cache.Children[0].Name != "compile" {
		t.Fatalf("cache children: %+v", cache.Children)
	}
	compile := cache.Children[0]
	if len(compile.Children) != 2 {
		t.Fatalf("compile children = %d", len(compile.Children))
	}
	if compile.Children[0].DurationUS != 500 || compile.Children[1].DurationUS != 200 {
		t.Fatalf("timed children: %+v", compile.Children)
	}
	if j.Root.Children[2].Attrs["nodes"] != 17 {
		t.Fatalf("solve attrs: %v", j.Root.Children[2].Attrs)
	}
}

func TestUnendedSpanClamped(t *testing.T) {
	r := NewRecorder(RecorderOptions{})
	tr := r.Start("/x", "")
	sp := tr.Root().Child("leaked") // never ended
	_ = sp
	time.Sleep(time.Millisecond)
	tr.Finish()
	j := tr.JSON()
	if len(j.Root.Children) != 1 {
		t.Fatalf("children = %d", len(j.Root.Children))
	}
	leaked := j.Root.Children[0]
	if leaked.DurationUS > j.Root.DurationUS {
		t.Fatalf("unended child %.1fus exceeds trace %.1fus", leaked.DurationUS, j.Root.DurationUS)
	}
}

func TestRingAndGet(t *testing.T) {
	r := NewRecorder(RecorderOptions{Ring: 4, SlowestPerRoute: 2})
	var ids []string
	for i := 0; i < 6; i++ {
		tr := r.Start("/v1/infer", "")
		ids = append(ids, tr.ID())
		tr.Finish()
	}
	recent := r.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent = %d, want 4 (ring capacity)", len(recent))
	}
	// Newest first.
	if recent[0].ID != ids[5] {
		t.Fatalf("recent[0] = %s, want %s", recent[0].ID, ids[5])
	}
	// Oldest two fell out of the ring...
	if got := r.Segments(ids[0]); len(got) > 0 {
		// ...unless the reservoir kept them; either way Segments must agree
		// with what the listing shows. ids[0] was among the first slow
		// entries so it may legitimately be retained.
		t.Logf("ids[0] retained by reservoir")
	}
	if got := r.Segments(ids[5]); len(got) != 1 {
		t.Fatalf("Segments(%s) = %d traces, want 1", ids[5], len(got))
	}
}

func TestSlowestReservoir(t *testing.T) {
	r := NewRecorder(RecorderOptions{Ring: 4, SlowestPerRoute: 2})
	// Three traces with distinct durations; only the slowest two stay.
	var traces []*Trace
	for i := 0; i < 3; i++ {
		tr := r.Start("/v1/verify", fmt.Sprintf("s%d", i))
		traces = append(traces, tr)
	}
	// Finish with controlled durations by ending in order with sleeps.
	time.Sleep(2 * time.Millisecond)
	traces[0].Finish() // ~2ms
	time.Sleep(2 * time.Millisecond)
	traces[1].Finish() // ~4ms
	time.Sleep(2 * time.Millisecond)
	traces[2].Finish() // ~6ms

	slow := r.Slowest()["/v1/verify"]
	if len(slow) != 2 {
		t.Fatalf("slowest = %d, want 2", len(slow))
	}
	if slow[0].ID != "s2" || slow[1].ID != "s1" {
		t.Fatalf("slowest order: %s, %s (want s2, s1)", slow[0].ID, slow[1].ID)
	}
	// The fast trace was evicted from the reservoir but may live in the
	// ring; the slow ones must be found regardless of ring churn.
	for i := 0; i < 16; i++ {
		tr := r.Start("/v1/infer", "")
		tr.Finish()
	}
	if len(r.Segments("s2")) == 0 {
		t.Fatal("slowest trace evicted by ring churn")
	}
}

func TestSlowLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	r := NewRecorder(RecorderOptions{
		SlowThreshold: time.Millisecond,
		SlowLog: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	fast := r.Start("/v1/infer", "fast")
	fast.Finish()
	slow := r.Start("/v1/verify", "slowone")
	time.Sleep(2 * time.Millisecond)
	slow.Finish()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want 1: %v", len(lines), lines)
	}
	if want := "route=/v1/verify id=slowone"; !strings.Contains(lines[0], want) {
		t.Fatalf("slow log %q missing %q", lines[0], want)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	tr := r.Start("/x", "id")
	if tr != nil {
		t.Fatal("nil recorder must return nil trace")
	}
	tr.Finish()
	if tr.ID() != "" || tr.Duration() != 0 {
		t.Fatal("nil trace accessors")
	}
	sp := tr.Root()
	sp.End()
	sp.SetAttr("k", 1)
	c := sp.Child("child")
	c.ChildTimed("t", time.Second)
	c.End()
	if c.Duration() != 0 {
		t.Fatal("nil span duration")
	}
	if r.Recent() != nil || r.Slowest() != nil || r.Segments("id") != nil {
		t.Fatal("nil recorder listings")
	}
	if j := tr.JSON(); j.Root != nil {
		t.Fatal("nil trace JSON")
	}
}

// TestRecorderConcurrent exercises concurrent trace production against
// concurrent listing/Segments — the scrape-vs-traffic pattern the server
// sees — under the race detector.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(RecorderOptions{Ring: 16, SlowestPerRoute: 4})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := r.Start(fmt.Sprintf("/route/%d", g%2), "")
				sp := tr.Root().Child("phase")
				sp.SetAttr("i", i)
				sp.End()
				tr.Finish()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, s := range r.Recent() {
				for _, tr := range r.Segments(s.ID) {
					_ = tr.JSON()
				}
			}
			_ = r.Slowest()
		}
	}()
	wg.Wait()
	if len(r.Recent()) == 0 {
		t.Fatal("no traces recorded")
	}
}
