package vnnfleet

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeStore implements Store over a plain map, with the knobs the edge
// case tests need: phantom set members (listed but not exportable) and
// per-fingerprint import verdicts.
type fakeStore struct {
	mu       sync.Mutex
	entries  map[string]*WorkloadExport
	draining bool

	// phantom fingerprints appear in FleetFingerprints but ExportEntry
	// 404s them — an entry evicted between the list and the pull.
	phantom []string

	// importErr overrides ImportEntry's verdict per fingerprint.
	importErr map[string]error
	imported  []string
}

func newFakeStore(fps ...string) *fakeStore {
	s := &fakeStore{entries: make(map[string]*WorkloadExport), importErr: make(map[string]error)}
	for _, fp := range fps {
		s.entries[fp] = &WorkloadExport{Fingerprint: fp, Kind: KindCompile}
	}
	return s
}

func (s *fakeStore) FleetFingerprints() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries)+len(s.phantom))
	for fp := range s.entries {
		out = append(out, fp)
	}
	return append(out, s.phantom...)
}

func (s *fakeStore) ExportEntry(fp string) (*WorkloadExport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	exp, ok := s.entries[fp]
	if !ok {
		return nil, ErrNotFound
	}
	return exp, nil
}

func (s *fakeStore) ImportEntry(_ context.Context, exp *WorkloadExport) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if err := s.importErr[exp.Fingerprint]; err != nil {
		return err
	}
	s.entries[exp.Fingerprint] = exp
	s.imported = append(s.imported, exp.Fingerprint)
	return nil
}

func (s *fakeStore) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *fakeStore) setDraining(v bool) {
	s.mu.Lock()
	s.draining = v
	s.mu.Unlock()
}

func (s *fakeStore) has(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[fp]
	return ok
}

// serve mounts a Peer over store on a test server.
func serve(t *testing.T, store Store) (*Peer, *httptest.Server) {
	t.Helper()
	p := NewPeer(store, Options{})
	mux := http.NewServeMux()
	p.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return p, srv
}

// fpOf spells a grammatical fingerprint whose digest is name in hex,
// zero-padded to 64 digits — readable in failures, and ordered like
// the names.
func fpOf(prefix, name string) string {
	digest := hex.EncodeToString([]byte(name))
	return prefix + digest + strings.Repeat("0", 64-len(digest))
}

func fps(name string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fpOf(compilePrefix, fmt.Sprintf("%s%04d", name, i))
	}
	return out
}

// countRoutes wraps h, counting list and export requests.
func countRoutes(h http.Handler) (_ http.Handler, lists, exports *atomic.Int64) {
	lists, exports = new(atomic.Int64), new(atomic.Int64)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/fingerprints" {
			lists.Add(1)
		} else if strings.HasPrefix(r.URL.Path, "/v1/workloads/") {
			exports.Add(1)
		}
		h.ServeHTTP(w, r)
	}), lists, exports
}

// TestReconcilePullsMissing: a follower pulls exactly the entries it
// lacks — once each, however often the peer lists them — and a second
// round is one list request that moves nothing.
func TestReconcilePullsMissing(t *testing.T) {
	shared := fps("shared", 40)
	aOnly := fps("aonly", 7)
	leader := newFakeStore(append(append([]string{}, shared...), aOnly...)...)
	leader.phantom = []string{aOnly[0], aOnly[0], shared[0]} // listed again
	follower := newFakeStore(shared...)
	mux := http.NewServeMux()
	NewPeer(leader, Options{}).Mount(mux)
	counted, lists, exports := countRoutes(mux)
	srv := httptest.NewServer(counted)
	t.Cleanup(srv.Close)

	p := NewPeer(follower, Options{})
	rs, err := p.ReconcileOnce(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Missing != len(aOnly) || rs.Pulled != len(aOnly) || rs.Skipped != 0 || rs.Rejected != 0 {
		t.Fatalf("round stats %+v, want %d pulled", rs, len(aOnly))
	}
	if e := exports.Load(); e != int64(len(aOnly)) {
		t.Fatalf("%d export requests for %d missing entries", e, len(aOnly))
	}
	for _, fp := range aOnly {
		if !follower.has(fp) {
			t.Fatalf("missing entry %s was not pulled", fp)
		}
	}

	// Converged: the next round finds an empty difference.
	lists.Store(0)
	exports.Store(0)
	rs, err = p.ReconcileOnce(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Missing != 0 || rs.Pulled != 0 {
		t.Fatalf("second round moved entries: %+v", rs)
	}
	if l, e := lists.Load(), exports.Load(); l != 1 || e != 0 {
		t.Fatalf("empty difference made %d list and %d export requests, want 1 and 0", l, e)
	}
	if st := p.Stats(); st.EntriesPulled != int64(len(aOnly)) || st.Rounds != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReconcileSkipsEvictedEntry: an entry evicted between the list
// and the pull (export 404) is skipped cleanly, everything
// else still lands.
func TestReconcileSkipsEvictedEntry(t *testing.T) {
	leader := newFakeStore(fps("live", 5)...)
	evicted := fpOf(compilePrefix, "evicted")
	leader.phantom = []string{evicted}
	follower := newFakeStore()
	_, srv := serve(t, leader)

	p := NewPeer(follower, Options{})
	rs, err := p.ReconcileOnce(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Missing != 6 || rs.Pulled != 5 || rs.Skipped != 1 || rs.Rejected != 0 {
		t.Fatalf("round stats %+v, want 5 pulled / 1 skipped", rs)
	}
	if follower.has(evicted) {
		t.Fatal("evicted phantom was imported")
	}
}

// TestReconcileRejectsHostileList: the fingerprint list is outside
// input. Every malformed, oversized or never-ending list ends the round
// with an error before a single pull, puts the peer in backoff and
// leaves no goroutine behind.
func TestReconcileRejectsHostileList(t *testing.T) {
	valid := fpOf(compilePrefix, "valid")
	list := func(elems ...string) []byte {
		body, err := json.Marshal(listResponse{Fingerprints: elems})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	static := func(body []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) { w.Write(body) }
	}
	cases := []struct {
		name string
		list http.HandlerFunc
		want string // in the round's error
		// timeout plays Options.RoundTimeout, which Run puts on the round's
		// context the same way (0 means long enough not to matter).
		timeout time.Duration
	}{
		// Valid JSON padded with whitespace: only the byte cap refuses it.
		{name: "body over the byte cap", want: "body too large",
			list: static([]byte(`{"fingerprints":[` + strings.Repeat(" ", maxListBytes) + `]}`))},
		{name: "entries over the cap", want: "exceed the 65536 cap",
			list: static(list(fps("many", maxListEntries+1)...))},
		{name: "1 MB fingerprint", want: "is not a fingerprint",
			list: static(list(valid, compilePrefix+strings.Repeat("a", 1<<20)))},
		{name: "wrong prefix", want: "is not a fingerprint",
			list: static(list(valid, "vnnmw1-"+valid[len(compilePrefix):]))},
		{name: "non-hex digest", want: "is not a fingerprint",
			list: static(list(valid, compilePrefix+strings.Repeat("g", 64)))},
		{name: "upper-case digest", want: "is not a fingerprint",
			list: static(list(valid, compilePrefix+strings.Repeat("A", 64)))},
		{name: "short digest", want: "is not a fingerprint",
			list: static(list(valid, valid[:len(valid)-1]))},
		{name: "malformed JSON", want: "unexpected EOF",
			list: static([]byte(`{"fingerprints":["` + valid + `",`))},
		{name: "not an object", want: "cannot unmarshal",
			list: static([]byte(`["` + valid + `"]`))},
		{name: "never-ending body", want: "context deadline exceeded", timeout: 300 * time.Millisecond,
			list: func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte(`{"fingerprints":[`))
				for r.Context().Err() == nil {
					w.Write([]byte(`"` + valid + `",`))
					w.(http.Flusher).Flush()
					time.Sleep(time.Millisecond)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/fleet/fingerprints", tc.list)
			mux.HandleFunc("GET /v1/workloads/{fingerprint}", NewPeer(newFakeStore(valid), Options{}).handleExport)
			counted, _, exports := countRoutes(mux)
			srv := httptest.NewServer(counted)
			client := &http.Client{Transport: &http.Transport{}}

			follower := newFakeStore()
			p := NewPeer(follower, Options{Client: client})
			if tc.timeout == 0 {
				tc.timeout = time.Minute
			}
			ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
			rs, err := p.ReconcileOnce(ctx, srv.URL)
			cancel()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("round error %v, want %q", err, tc.want)
			}
			if rs != (RoundStats{}) || exports.Load() != 0 || len(follower.imported) != 0 {
				t.Fatalf("round went on after a hostile list: %+v, %d export requests, imported %v",
					rs, exports.Load(), follower.imported)
			}
			st := p.Stats()
			if st.Rounds != 0 || len(st.Peers) != 1 || st.Peers[0].Failures != 1 || st.Peers[0].LastError == "" {
				t.Fatalf("failure not tracked: %+v", st)
			}
			if p.peerDue(srv.URL, time.Now()) {
				t.Fatal("peer not in backoff after a hostile list")
			}

			client.CloseIdleConnections()
			srv.Close()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before the round, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestReconcileClassifiesImportErrors: verification failures are
// rejections, dependency gaps are skips, and neither aborts the round.
func TestReconcileClassifiesImportErrors(t *testing.T) {
	good, corrupt, orphan := fpOf(compilePrefix, "good"), fpOf(compilePrefix, "corrupt"), fpOf(monitorPrefix, "orphan")
	leader := newFakeStore(good, corrupt, orphan)
	follower := newFakeStore()
	follower.importErr[corrupt] = fmt.Errorf("checksum: %w", ErrVerify)
	follower.importErr[orphan] = fmt.Errorf("needs workload: %w", ErrDependency)
	_, srv := serve(t, leader)

	p := NewPeer(follower, Options{})
	rs, err := p.ReconcileOnce(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Pulled != 1 || rs.Rejected != 1 || rs.Skipped != 1 {
		t.Fatalf("round stats %+v, want 1/1/1", rs)
	}
	if !follower.has(good) || follower.has(corrupt) {
		t.Fatal("wrong entries imported")
	}
	if st := p.Stats(); st.PullRejected != 1 || st.PullSkipped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReconcileDrain: a draining follower refuses to start a round,
// and a draining leader answers 503 (no new inserts after drain
// starts, in either direction).
func TestReconcileDrain(t *testing.T) {
	x := fpOf(compilePrefix, "x")
	leader := newFakeStore(x)
	follower := newFakeStore()
	_, srv := serve(t, leader)

	follower.setDraining(true)
	p := NewPeer(follower, Options{})
	if _, err := p.ReconcileOnce(context.Background(), srv.URL); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining follower started a round: %v", err)
	}
	follower.setDraining(false)

	leader.setDraining(true)
	if _, err := p.ReconcileOnce(context.Background(), srv.URL); err == nil {
		t.Fatal("round against a draining leader succeeded")
	}
	if follower.has(x) {
		t.Fatal("entry imported from a draining leader")
	}

	// Drain lifted: replication resumes.
	leader.setDraining(false)
	if _, err := p.ReconcileOnce(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if !follower.has(x) {
		t.Fatal("entry not pulled after drain lifted")
	}
}

// TestReconcileOrdersCompilesFirst: compile entries are imported
// before monitor entries within one round, so monitor dependencies
// resolve in a single pass.
func TestReconcileOrdersCompilesFirst(t *testing.T) {
	netA, netB := fpOf(compilePrefix, "net-a"), fpOf(compilePrefix, "net-b")
	monA, monB := fpOf(monitorPrefix, "mon-a"), fpOf(monitorPrefix, "mon-b")
	leader := newFakeStore(monB, netA, monA, netB)
	follower := newFakeStore()
	_, srv := serve(t, leader)

	p := NewPeer(follower, Options{})
	if _, err := p.ReconcileOnce(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	want := []string{netA, netB, monA, monB}
	if len(follower.imported) != len(want) {
		t.Fatalf("imported %v, want %v", follower.imported, want)
	}
	for i, fp := range want {
		if follower.imported[i] != fp {
			t.Fatalf("import order %v, want %v", follower.imported, want)
		}
	}
}

// TestPullVerifiesClaimedFingerprint: an export whose document claims
// a different fingerprint than the one requested is rejected before
// ImportEntry ever runs.
func TestPullVerifiesClaimedFingerprint(t *testing.T) {
	honest := fpOf(compilePrefix, "honest")
	leader := newFakeStore(honest)
	leader.entries[honest].Fingerprint = fpOf(compilePrefix, "liar")
	follower := newFakeStore()
	_, srv := serve(t, leader)

	p := NewPeer(follower, Options{})
	rs, err := p.ReconcileOnce(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rejected != 1 || rs.Pulled != 0 {
		t.Fatalf("round stats %+v, want 1 rejected", rs)
	}
	if len(follower.imported) != 0 {
		t.Fatal("mislabeled entry reached ImportEntry")
	}
}

// TestRunLoopConvergesAndBacksOff: the loop replicates within a few
// jittered intervals, and a dead peer does not wedge it.
func TestRunLoopConvergesAndBacksOff(t *testing.T) {
	loop := fps("loop", 3)
	leader := newFakeStore(loop...)
	follower := newFakeStore()
	_, srv := serve(t, leader)

	p := NewPeer(follower, Options{Interval: 10 * time.Millisecond, RoundTimeout: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); p.Run(ctx, []string{srv.URL, "http://127.0.0.1:1"}) }()

	// The loop converges, and the dead peer lands in backoff rather than
	// crashing it; its failing round may end after convergence.
	deadTracked := func(st Stats) bool {
		for _, ps := range st.Peers {
			if ps.URL == "http://127.0.0.1:1" {
				return ps.Failures > 0 && ps.LastError != ""
			}
		}
		return false
	}
	deadline := time.After(10 * time.Second)
	for {
		if follower.has(loop[2]) && follower.has(loop[0]) && deadTracked(p.Stats()) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("run loop did not converge with the dead peer tracked: %+v", p.Stats().Peers)
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Drain stops the loop on its own.
	follower.setDraining(true)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run loop did not exit on drain")
	}
	cancel()
}

// TestReconcileTracePropagation is the cross-node trace contract: one
// reconcile round on the follower leaves ONE distributed trace whose
// id also addresses the serving peer's recorder — the list and
// per-entry export calls all carry the round's traceparent, and the
// serving side records each as a segment naming the follower's root
// span as its parent.
func TestReconcileTracePropagation(t *testing.T) {
	leader := newFakeStore(fps("traced", 3)...)
	follower := newFakeStore()
	recLeader := obs.NewRecorder(obs.RecorderOptions{Ring: 32, Node: "leader"})
	recFollower := obs.NewRecorder(obs.RecorderOptions{Ring: 32, Node: "follower"})

	lp := NewPeer(leader, Options{Recorder: recLeader})
	mux := http.NewServeMux()
	lp.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	p := NewPeer(follower, Options{Recorder: recFollower})
	if _, err := p.ReconcileOnce(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}

	recent := recFollower.Recent()
	if len(recent) != 1 || recent[0].Route != "fleet.reconcile" {
		t.Fatalf("follower recorded %v, want one fleet.reconcile trace", recent)
	}
	tid := recent[0].TraceID
	if tid == "" {
		t.Fatal("reconcile trace has no W3C trace id")
	}
	round := recFollower.Segments(tid)
	if len(round) == 0 {
		t.Fatal("reconcile trace not addressable by hex trace id")
	}
	rootSpan := round[0].JSON().SpanID

	// A handler finishes its segment after the response is written, so
	// the last export's can land just after ReconcileOnce returns.
	var segs []*obs.Trace
	for deadline := time.Now().Add(5 * time.Second); ; {
		segs = recLeader.Segments(tid)
		if len(segs) >= 4 || time.Now().After(deadline) { // list + 3 exports
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(segs) != 4 {
		t.Fatalf("leader recorded %d segments of trace %s, want 4", len(segs), tid)
	}
	routes := map[string]int{}
	for _, seg := range segs {
		doc := seg.JSON()
		if doc.TraceID != tid {
			t.Fatalf("segment trace id %q != round id %q", doc.TraceID, tid)
		}
		if doc.Node != "leader" {
			t.Fatalf("segment node = %q, want leader", doc.Node)
		}
		if doc.ParentSpan != rootSpan {
			t.Fatalf("segment parent span %q, want follower root %q", doc.ParentSpan, rootSpan)
		}
		routes[doc.Route]++
	}
	if routes["fleet.list"] != 1 || routes["fleet.export"] != 3 {
		t.Fatalf("segment routes = %v, want 1 list, 3 exports", routes)
	}

	// Without a recorder on the pulling side no traceparent is minted,
	// so the serving side records nothing new.
	before := len(recLeader.Segments(tid))
	quiet := NewPeer(newFakeStore(), Options{})
	if _, err := quiet.ReconcileOnce(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := len(recLeader.Segments(tid)); got != before {
		t.Fatalf("untraced round grew trace %s segments %d -> %d", tid, before, got)
	}
}
