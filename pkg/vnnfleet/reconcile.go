package vnnfleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options tune a Peer. The zero value is serviceable.
type Options struct {
	// Interval is the reconcile loop period (default 30s); each sleep
	// is jittered to ±50% so a fleet booted together does not
	// synchronize its rounds.
	Interval time.Duration
	// RoundTimeout bounds one ReconcileOnce call in the loop
	// (default 2m).
	RoundTimeout time.Duration
	// MaxBackoff caps the per-peer failure backoff (default 10×Interval,
	// at most 5m).
	MaxBackoff time.Duration
	// Client performs the HTTP requests (default http.DefaultClient —
	// per-round deadlines come from the context).
	Client *http.Client
	// Recorder, when set, records one flight-recorder trace per
	// ReconcileOnce round (route "fleet.reconcile") with list and pull
	// phases. Nil disables tracing.
	Recorder *obs.Recorder
	// Latency, when set, observes each round's wall time in nanoseconds.
	// Nil disables the histogram.
	Latency *obs.Histogram
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 30 * time.Second
	}
	if o.RoundTimeout <= 0 {
		o.RoundTimeout = 2 * time.Minute
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 10 * o.Interval
		if o.MaxBackoff > 5*time.Minute {
			o.MaxBackoff = 5 * time.Minute
		}
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// Peer is one node's fleet endpoint set plus its reconcile client: it
// serves the local Store to pulling peers (Mount) and periodically
// pulls what the peers have that the local node lacks (Run /
// ReconcileOnce).
type Peer struct {
	store Store
	opts  Options

	rounds        atomic.Int64
	entriesPulled atomic.Int64
	entriesPushed atomic.Int64
	pullRejected  atomic.Int64
	pullSkipped   atomic.Int64

	mu    sync.Mutex
	peers map[string]*peerState
}

// peerState tracks one remote peer's health from this node's side.
type peerState struct {
	rounds    int64
	failures  int64
	consec    int       // consecutive failures, drives backoff
	lastSync  time.Time // last successful round
	lastError string
	nextTry   time.Time // backoff gate
}

// NewPeer builds a fleet peer over store.
func NewPeer(store Store, opts Options) *Peer {
	return &Peer{store: store, opts: opts.withDefaults(), peers: make(map[string]*peerState)}
}

// RoundStats reports what one reconcile round did.
type RoundStats struct {
	// Missing is the number of entries the peer lists and this node
	// lacks; Pulled of them were fetched, verified and inserted, Skipped
	// vanished upstream before the pull (or need a dependency), Rejected
	// failed verification.
	Missing, Pulled, Skipped, Rejected int
}

// ReconcileOnce runs one pull round against the peer at base (e.g.
// "http://10.0.0.2:8419"): fetch the peer's fingerprint list, diff it
// against the local set, pull and import each missing entry (compiles
// before monitors, so monitor imports find their workload). Partial
// progress is normal: eviction races and dependency gaps are skips,
// not errors.
func (p *Peer) ReconcileOnce(ctx context.Context, base string) (RoundStats, error) {
	var rs RoundStats
	if p.store.Draining() {
		return rs, ErrDraining
	}
	base = strings.TrimSuffix(base, "/")

	start := time.Now()
	tr := p.opts.Recorder.Start("fleet.reconcile", "")
	root := tr.Root()
	root.SetAttr("peer", base)
	defer func() {
		tr.Finish()
		if p.opts.Latency != nil {
			p.opts.Latency.Observe(int64(time.Since(start)))
		}
	}()

	listSpan := root.Child("list")
	remote, err := p.list(ctx, base, tr)
	listSpan.SetAttr("received", len(remote))
	listSpan.End()
	if err != nil {
		p.noteRound(base, err)
		return rs, err
	}
	p.rounds.Add(1)

	// seen starts as the local set and grows with each missing entry, so
	// a fingerprint the peer lists twice is pulled once.
	seen := make(map[string]bool)
	for _, fp := range p.store.FleetFingerprints() {
		seen[fp] = true
	}
	var fps []string
	for _, fp := range remote {
		if !seen[fp] {
			seen[fp] = true
			fps = append(fps, fp)
		}
	}
	rs.Missing = len(fps)
	root.SetAttr("missing", rs.Missing)

	// Compiles strictly before monitors: a monitor import requires its
	// compile workload to be cached. Lexicographic within a kind keeps
	// rounds deterministic.
	sort.Slice(fps, func(i, j int) bool {
		ci, cj := strings.HasPrefix(fps[i], compilePrefix), strings.HasPrefix(fps[j], compilePrefix)
		if ci != cj {
			return ci
		}
		return fps[i] < fps[j]
	})

	pullSpan := root.Child("pull")
	defer pullSpan.End()
	for _, fp := range fps {
		entrySpan := pullSpan.Child(fp)
		err := p.pullOne(ctx, base, tr, fp)
		switch {
		case err == nil:
			entrySpan.SetAttr("outcome", "pulled")
			rs.Pulled++
			p.entriesPulled.Add(1)
		case errors.Is(err, ErrVerify):
			entrySpan.SetAttr("outcome", "rejected")
			rs.Rejected++
			p.pullRejected.Add(1)
		case errors.Is(err, ErrNotFound), errors.Is(err, ErrDependency):
			entrySpan.SetAttr("outcome", "skipped")
			rs.Skipped++
			p.pullSkipped.Add(1)
		default:
			// Transport failure or local drain: abort the round, the
			// loop's backoff owns the retry.
			entrySpan.SetAttr("outcome", "error")
			entrySpan.End()
			p.noteRound(base, err)
			return rs, err
		}
		entrySpan.End()
	}
	p.noteRound(base, nil)
	return rs, nil
}

// propagate stamps the round trace's W3C traceparent onto an outbound
// fleet request, so the serving peer records its side of the work as a
// segment of the SAME distributed trace. No-op when tracing is off
// (nil recorder → invalid traceparent).
func propagate(req *http.Request, tr *obs.Trace) {
	if tp := tr.Propagation(); tp.Valid() {
		req.Header.Set("traceparent", tp.String())
	}
}

// Fingerprint namespaces the fleet replicates: compile workloads and
// monitor names (vnn.Monitor.Fingerprint), each followed by 64 lowercase
// hex digits.
const (
	compilePrefix = "vnn1-"
	monitorPrefix = "vnnm1-"
)

// validFingerprint reports whether fp is a replicable fingerprint: one
// of the two prefixes plus a hex SHA-256.
func validFingerprint(fp string) bool {
	digest, ok := strings.CutPrefix(fp, compilePrefix)
	if !ok {
		digest, ok = strings.CutPrefix(fp, monitorPrefix)
	}
	if !ok || len(digest) != 64 {
		return false
	}
	for i := 0; i < len(digest); i++ {
		if c := digest[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// list fetches the peer's fingerprint list. It is outside input: the
// body is size-capped and must be one JSON object with only whitespace
// after it (unknown fields are allowed), the entry count is capped, and
// one element off the fingerprint grammar fails the whole round.
func (p *Peer) list(ctx context.Context, base string, tr *obs.Trace) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/fleet/fingerprints", nil)
	if err != nil {
		return nil, err
	}
	propagate(req, tr)
	resp, err := p.opts.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("list %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("list %s: HTTP %d", base, resp.StatusCode)
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, maxListBytes))
	var lr *listResponse
	if err := dec.Decode(&lr); err != nil {
		return nil, fmt.Errorf("list %s: %w", base, err)
	}
	if lr == nil {
		return nil, fmt.Errorf("list %s: null is not a fingerprint list", base)
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("%v after the fingerprint list", tok)
		}
		return nil, fmt.Errorf("list %s: %w", base, err)
	}
	if len(lr.Fingerprints) > maxListEntries {
		return nil, fmt.Errorf("list %s: %d fingerprints exceed the %d cap", base, len(lr.Fingerprints), maxListEntries)
	}
	for _, fp := range lr.Fingerprints {
		if !validFingerprint(fp) {
			return nil, fmt.Errorf("list %s: %.80q is not a fingerprint", base, fp)
		}
	}
	return lr.Fingerprints, nil
}

// pullOne fetches one workload export and imports it through the store.
func (p *Peer) pullOne(ctx context.Context, base string, tr *obs.Trace, fp string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/workloads/"+fp, nil)
	if err != nil {
		return err
	}
	propagate(req, tr)
	resp, err := p.opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("pull %s: %w", fp, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("pull %s: %w", fp, ErrNotFound)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("pull %s: HTTP %d", fp, resp.StatusCode)
	}
	var exp WorkloadExport
	if err := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, 256<<20)).Decode(&exp); err != nil {
		return fmt.Errorf("pull %s: %w: %v", fp, ErrVerify, err)
	}
	if exp.Fingerprint != fp {
		return fmt.Errorf("pull %s: %w: document claims %s", fp, ErrVerify, exp.Fingerprint)
	}
	return p.store.ImportEntry(ctx, &exp)
}

// Run is the periodic reconcile loop: every jittered interval, one
// round against each configured peer (respecting per-peer backoff).
// Returns when ctx is canceled or the store starts draining. Meant to
// run in its own goroutine per node.
func (p *Peer) Run(ctx context.Context, peers []string) {
	if len(peers) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		// Jitter: 0.5–1.5 × Interval, so co-booted nodes desynchronize.
		sleep := p.opts.Interval/2 + time.Duration(rng.Int63n(int64(p.opts.Interval)))
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
		if p.store.Draining() {
			return
		}
		now := time.Now()
		for _, peer := range peers {
			if !p.peerDue(peer, now) {
				continue
			}
			rctx, cancel := context.WithTimeout(ctx, p.opts.RoundTimeout)
			_, err := p.ReconcileOnce(rctx, peer)
			cancel()
			if ctx.Err() != nil || errors.Is(err, ErrDraining) || p.store.Draining() {
				return
			}
		}
	}
}

// peerDue reports whether the peer's backoff gate has passed.
func (p *Peer) peerDue(peer string, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.peers[peer]
	return !ok || !now.Before(st.nextTry)
}

// noteRound records a round outcome and advances the peer's backoff
// state: success clears it, each consecutive failure doubles the delay
// up to MaxBackoff.
func (p *Peer) noteRound(peer string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.peers[peer]
	if !ok {
		st = &peerState{}
		p.peers[peer] = st
	}
	st.rounds++
	if err == nil {
		st.consec = 0
		st.lastError = ""
		st.lastSync = time.Now()
		st.nextTry = time.Time{}
		return
	}
	st.failures++
	if st.consec < 30 {
		st.consec++
	}
	st.lastError = err.Error()
	backoff := p.opts.Interval << (st.consec - 1)
	if backoff > p.opts.MaxBackoff || backoff <= 0 {
		backoff = p.opts.MaxBackoff
	}
	st.nextTry = time.Now().Add(backoff)
}

// PeerStats is one remote peer's health as seen from this node.
type PeerStats struct {
	URL      string `json:"url"`
	Rounds   int64  `json:"rounds"`
	Failures int64  `json:"failures"`
	// LastSyncMS is milliseconds since the last successful round;
	// absent before the first success.
	LastSyncMS *float64 `json:"last_sync_ms,omitempty"`
	LastError  string   `json:"last_error,omitempty"`
}

// Stats is the /metrics "fleet" block.
type Stats struct {
	// Rounds counts rounds initiated by this node whose fingerprint list
	// arrived intact.
	Rounds int64 `json:"rounds"`
	// EntriesPulled/EntriesPushed count artifacts imported from peers
	// and exported to them.
	EntriesPulled int64 `json:"entries_pulled"`
	EntriesPushed int64 `json:"entries_pushed"`
	// PullRejected counts pulls that failed content re-verification;
	// PullSkipped counts benign races (evicted upstream, missing
	// dependency).
	PullRejected int64 `json:"pull_rejected"`
	PullSkipped  int64 `json:"pull_skipped"`
	// Peers is per-peer health, sorted by URL.
	Peers []PeerStats `json:"peers,omitempty"`
}

// Stats snapshots the fleet counters.
func (p *Peer) Stats() Stats {
	s := Stats{
		Rounds:        p.rounds.Load(),
		EntriesPulled: p.entriesPulled.Load(),
		EntriesPushed: p.entriesPushed.Load(),
		PullRejected:  p.pullRejected.Load(),
		PullSkipped:   p.pullSkipped.Load(),
	}
	p.mu.Lock()
	for url, st := range p.peers {
		ps := PeerStats{URL: url, Rounds: st.rounds, Failures: st.failures, LastError: st.lastError}
		if !st.lastSync.IsZero() {
			ms := float64(time.Since(st.lastSync).Microseconds()) / 1e3
			ps.LastSyncMS = &ms
		}
		s.Peers = append(s.Peers, ps)
	}
	p.mu.Unlock()
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].URL < s.Peers[j].URL })
	return s
}
