// Command vnnd is the verification daemon: a long-running HTTP service
// (package vnnserver) that keeps compiled networks warm across requests.
// Where every annverify invocation recompiles its workload, vnnd
// fingerprints (network, region, compile options), caches the compiled
// artifact in an LRU, collapses concurrent identical requests into one
// compile (singleflight), and schedules queries under a global worker
// budget with bounded queueing and backpressure.
//
// # Usage
//
//	vnnd                           # serve on :8419
//	vnnd -addr 127.0.0.1:9000      # explicit listen address
//	vnnd -cache 128 -queue 512     # bigger cache and admission queue
//	vnnd -timeout 5m               # default per-query budget
//	vnnd -drain-grace 10s          # patience before interrupting on SIGTERM
//	vnnd -peers http://10.0.0.2:8419,http://10.0.0.3:8419
//	                               # replicate caches across a static fleet
//	vnnd -fleet-interval 10s       # reconcile period (default 30s, jittered)
//	vnnd -trace-ring 1024          # completed traces kept for /debug/traces
//	vnnd -slow-log 500ms           # log requests slower than this, with trace id
//	vnnd -pprof                    # mount /debug/pprof/ (off by default)
//	vnnd -data-dir /var/lib/vnnd   # persist the model registry (rollout plane)
//	vnnd -gate @gate.json          # default admission gate for model submissions
//	vnnd -version                  # print build info and exit
//
// # Verify round trip
//
//	curl -s localhost:8419/v1/verify -d '{
//	  "network": '"$(cat i4x10.json)"',
//	  "region": {"name": "left_occupied"},
//	  "properties": [{"kind": "max", "outputs": [1]},
//	                 {"kind": "at_most", "output": 1, "threshold": 3.0}],
//	  "options": {"tighten": true, "workers": 1}
//	}'
//
// The response embeds the same Report document `annverify -json` prints,
// plus the workload fingerprint, whether the compile was a cache hit, and
// the compile cost. Repeat the call: the second answer arrives without
// recompiling (cache_hit true, encode/tighten pass counters in /metrics
// unchanged).
//
// # Async queries and progress streaming
//
// Add "wait": false to get 202 + a job id immediately, then stream
// branch-and-bound progress as server-sent events:
//
//	curl -s localhost:8419/v1/verify/q00000001/events
//	event: progress
//	data: {"property":0,"nodes":64,"open":12,"bound":3.41,...}
//	...
//	event: result
//	data: {"id":"q00000001","cache_hit":true,...,"results":[...]}
//
// GET /v1/verify/{id} fetches the result after the fact.
//
// # The dependability portfolio: /v1/analyze
//
// Verification is one pillar of the paper's certification portfolio;
// POST /v1/analyze serves them all over one compiled artifact. The body
// names a batch of analyses; each returns a typed finding under
// "analyses" in the same Report document. Structural coverage with a
// seeded (reproducible) generator:
//
//	curl -s localhost:8419/v1/analyze -d '{
//	  "network": '"$(cat i4x10.json)"',
//	  "region": {"name": "left_occupied"},
//	  "analyses": [{"kind": "coverage", "max_tests": 2000, "seed": 1}]
//	}'
//
// A quantization sweep — per bit-width the network is quantized,
// recompiled (through the same fingerprint cache, so concurrent
// identical sweeps compile each width once) and re-verified against the
// same properties, reporting verified bounds and drift vs. float:
//
//	curl -s localhost:8419/v1/analyze -d '{
//	  "network": '"$(cat i4x10.json)"',
//	  "region": {"name": "left_occupied"},
//	  "analyses": [{"kind": "quant_sweep", "bits": [8, 6, 4],
//	                "properties": [{"kind": "max", "outputs": [1, 6]}]}],
//	  "options": {"workers": 1}
//	}'
//
// Traceability (neuron-to-feature attribution over a dataset, with
// activation conditions read from the compiled bounds — no second
// propagation pass) and data validation:
//
//	curl -s localhost:8419/v1/analyze -d '{
//	  "network": '"$(cat i4x10.json)"',
//	  "region": {"name": "left_occupied"},
//	  "analyses": [
//	    {"kind": "traceability", "data": [[0.5, 0.5, ...], ...], "top_k": 3},
//	    {"kind": "data_validation", "data": [[...]], "labels": [[...]],
//	     "rules": [{"kind": "finite"}, {"kind": "range", "lo": 0, "hi": 1}]}
//	  ]
//	}'
//
// "verify", "falsify" (the PGD pre-pass, {"kind": "falsify", "outputs":
// [1]} — there is no separate falsification route) and "monitor_audit"
// analysis kinds complete the portfolio; "wait": false and GET
// /v1/analyze/{id}[/events] work exactly as for verify (progress events
// carry the emitting analysis's index).
// /metrics reports served analyses by kind under "analyses".
//
// # Online inference with runtime monitoring: /v1/infer
//
// The service does not only certify networks — it runs them. POST
// /v1/infer evaluates a batch of inputs on the blocked serving kernels
// (predictions bit-identical to nn.ForwardBatchInto however the inputs
// are batched, deterministic across runs and worker counts; see
// DESIGN.md "Kernel layer") plus, when
// "monitor" is present, a per-input runtime verdict: an
// activation-pattern monitor is built from the given dataset against the
// compiled network's proven pre-activation bounds (patterns the bounds
// prove unreachable over the region are rejected at build time — see
// "monitor_rejected"), cached under its content fingerprint, and
// every input whose pattern is farther than "gamma" (Hamming distance,
// per monitored layer) from anything the dataset exercised is flagged
// before its prediction is trusted:
//
//	curl -s localhost:8419/v1/infer -d '{
//	  "network": '"$(cat i4x10.json)"',
//	  "region": {"name": "left_occupied"},
//	  "inputs": [[0.5, 0.5, ...], ...],
//	  "monitor": {"data": [[0.5, 0.5, ...], ...], "gamma": 2}
//	}'
//	{"fingerprint":"vnn1-...","cache_hit":true,
//	 "monitor_fingerprint":"vnnm1-...","monitor_cache_hit":true,
//	 "monitor_patterns":412,"monitor_rejected":3,
//	 "outputs":[[...], ...],
//	 "verdicts":[{"ok":true,"layer":3,"distance":1},
//	             {"ok":false,"layer":1,"distance":7}, ...],
//	 "flagged":1}
//
// The endpoint is the service's low-latency plane: no admission queue,
// no SSE jobs, allocation-free batched forward passes on the request's
// own goroutine. Omit "monitor" for plain (unsupervised) inference —
// that path never compiles anything.
//
// Warm clients drop the network from the wire entirely: every response
// echoes "fingerprint" (and "monitor_fingerprint"), and a follow-up
// request may send just those plus the inputs —
//
//	curl -s localhost:8419/v1/infer -d '{
//	  "fingerprint": "vnn1-...",
//	  "monitor_fingerprint": "vnnm1-...",
//	  "inputs": [[0.5, 0.5, ...], ...]
//	}'
//
// — cutting a request from megabytes to kilobytes (unknown fingerprints
// answer 404; re-send the full request). Repeated monitored requests hit
// both the compile cache and the monitor cache; /metrics reports the
// plane under "infer" (requests, inputs, flagged, cached monitors and
// workloads).
//
// # Verified rollout: /v1/models, -data-dir, -gate
//
// The registry (pkg/vnnregistry) turns the daemon into a certification-
// gated serving plane: named model versions are submitted, must pass an
// admission gate — a portfolio batch with thresholds — and only then move
// toward traffic through the lifecycle
//
//	pending → admitted → canary(p%) → live → retired
//	        ↘ rejected
//
// Submit a version (the gate runs asynchronously through the same
// scheduler and job registry as /v1/verify; "wait": true blocks for the
// decision):
//
//	curl -s localhost:8419/v1/models -d '{
//	  "model": "occupancy",
//	  "network": '"$(cat i4x10.json)"',
//	  "region": {"name": "left_occupied"},
//	  "options": {"workers": 1},
//	  "monitor": {"data": [[0.5, 0.5, ...], ...], "gamma": 2},
//	  "gate": {
//	    "analyses": [
//	      {"kind": "verify", "properties": [{"kind": "at_most", "output": 0, "threshold": 1.5}]},
//	      {"kind": "monitor_audit", "data": [[0.5, 0.5, ...], ...], "gamma": 2}
//	    ],
//	    "max_flag_rate": 0.05
//	  }
//	}'
//	{"id":"q00000001","model":"occupancy","version":1,"state":"pending",...}
//
// The 202 echoes the gate job id: stream the gate's branch-and-bound
// progress and terminal decision over SSE, or poll the model document —
//
//	curl -s localhost:8419/v1/models/occupancy/events     # gate progress + result
//	curl -s localhost:8419/v1/models/occupancy            # full rollout document
//	curl -s localhost:8419/debug/traces/q00000001         # the gate's trace
//
// — the trace is an analyze batch's under a "gate" root: queue, cache,
// monitor (the serving monitor's build), then solve with one child per
// property, and the gate's branch-and-bound counts in /metrics "nodes"
// and "lp_pivots" like any query's. A version whose gate fails is
// rejected and never serves; a passing one becomes admitted. Roll it out
// — first to a deterministic canary share, then fully:
//
//	curl -s localhost:8419/v1/models/occupancy/promote -d '{"canary_percent": 10}'
//	curl -s localhost:8419/v1/infer?model=occupancy -d '{"inputs": [[0.5, 0.5, ...]]}'
//	curl -s localhost:8419/v1/models/occupancy/promote -d '{}'
//
// Canary routing hashes each request's input bits (FNV-1a over the
// IEEE-754 values): the same inputs always land on the same version at a
// fixed share, so canary comparisons are reproducible. The infer
// response names what served it ("model", "model_version", "route").
// Cutover retires the previous live version but keeps its compiled
// artifact and monitor warm, so rollback is one atomic route swap:
//
//	curl -s -X POST localhost:8419/v1/models/occupancy/rollback
//
// With -data-dir set, registry state (one snapshot, each version's
// transition history inside it) survives restarts: on boot the daemon recompiles every routable
// version and restores its monitors before /readyz reports ready — a
// version caught mid-gate by the crash recovers as rejected (its
// certification never completed; re-submit it). -gate supplies a default
// gate for submissions that carry none: inline JSON or @file. /metrics
// reports the plane under "registry" (per-version states and serving
// counters; vnnd_model_version_info and vnnd_model_*_total in the
// Prometheus rendering).
//
// # Fleet replication: -peers
//
// Several vnnd nodes form a fleet: give each the others' base URLs and
// every node periodically reconciles its compile + monitor caches with
// its peers (see DESIGN.md "Fleet replication"): it fetches a peer's
// fingerprint list (GET /v1/fleet/fingerprints, ~9 KB at the default
// -cache 64) and pulls the entries it lacks, so converged nodes
// exchange one list per round. Everything pulled is re-verified from
// content (fingerprints recomputed, bounds containment-checked) before
// it enters a cache, and imports ride the same singleflight paths
// local requests use, so a pull never races a local compile into
// duplicate work. Two-node walkthrough:
//
//	# terminal 1
//	vnnd -addr 127.0.0.1:8419 -peers http://127.0.0.1:8420 -fleet-interval 5s
//	# terminal 2
//	vnnd -addr 127.0.0.1:8420 -peers http://127.0.0.1:8419 -fleet-interval 5s
//
//	# compile + monitor on node A only
//	curl -s 127.0.0.1:8419/v1/infer -d '{
//	  "network": '"$(cat i4x10.json)"',
//	  "region": {"name": "left_occupied"},
//	  "inputs": [[0.5, 0.5, 0.5, 0.5]],
//	  "monitor": {"data": [[0.5, 0.5, 0.5, 0.5]], "gamma": 1}
//	}'
//
//	# within a couple of intervals node B serves the same workload by
//	# fingerprint — without ever having compiled it (its
//	# vnnd.cache.misses stays 0; /metrics "fleet" shows the pull):
//	curl -s 127.0.0.1:8420/v1/infer -d '{
//	  "fingerprint": "vnn1-...", "monitor_fingerprint": "vnnm1-...",
//	  "inputs": [[0.5, 0.5, 0.5, 0.5]]
//	}'
//
// Replication is pull-only and symmetric (each node runs its own
// rounds), intervals are jittered, failing peers back off
// exponentially, and a draining node neither serves fleet requests nor
// accepts imports. /metrics reports rounds, entries pulled/pushed,
// rejects, skips and per-peer last-sync under "fleet", plus the
// accounted cache size under "cache.bytes".
//
// # Observability: /metrics, /debug/traces, the flight recorder
//
// /metrics is content-negotiated. The default (and what every JSON
// example in this doc assumes) is the structured snapshot:
//
//	curl -s localhost:8419/metrics | python3 -m json.tool
//
// A Prometheus scraper gets the text exposition format instead — either
// via its usual Accept header (any text/plain clause) or explicitly:
//
//	curl -s 'localhost:8419/metrics?format=prometheus'
//	curl -s -H 'Accept: text/plain' localhost:8419/metrics
//	# HELP vnnd_build_info Build identity (value is always 1).
//	# TYPE vnnd_build_info gauge
//	vnnd_build_info{version="devel",revision="",go="go1.24.0"} 1
//	...
//	vnnd_request_duration_seconds_bucket{route="/v1/verify",le="0.000131071"} 2
//
// Both renderings come from one atomic snapshot per scrape: counters are
// read in one pass with request counters read before effort counters, so
// a scrape never shows a counted request without its solver effort.
// A minimal prometheus.yml scrape config:
//
//	scrape_configs:
//	  - job_name: vnnd
//	    static_configs:
//	      - targets: ['localhost:8419']
//
// In a fleet, /v1/fleet/metrics federates: the serving node merges its
// own snapshot with its peers' under "nodes" (keyed by -node-id) and an
// "aggregate" whose counters are the exact sum and whose histograms are
// the bucket-wise sum — every node shares the same log2 bucket
// boundaries, so the merge loses nothing. It negotiates content like
// /metrics, so one scrape job covers the whole fleet through any node:
//
//	scrape_configs:
//	  - job_name: vnnd-fleet
//	    metrics_path: /v1/fleet/metrics
//	    params: {format: [prometheus]}
//	    static_configs:
//	      - targets: ['localhost:8419']
//
// Requests carrying an X-API-Key are accounted per tenant (requests,
// latency, inputs, flagged, queue wait) under "tenants" in /metrics and
// as vnnd_tenant_* series in the Prometheus rendering; keyless requests
// count as "anonymous". Per-node label cardinality is hard-capped by
// -tenant-cap: past the cap, new keys fold into "other", so a key-churn
// storm cannot blow up the scrape.
//
// # The operator CLI: vnnctl
//
// cmd/vnnctl reads these planes from a terminal — point it at any node
// and it sees the fleet through that node's federation endpoint:
//
//	vnnctl -node http://127.0.0.1:8419 status   # one line per node
//	vnnctl -node http://127.0.0.1:8419 top      # per-tenant req/s, p50, p99
//	vnnctl -node http://127.0.0.1:8419 trace q00000007
//
// top samples /v1/fleet/metrics twice, -interval apart, and reports
// only the window between the snapshots (exact histogram deltas —
// fleet history cannot smear the quantiles). trace fetches
// /debug/traces/{id} and renders every segment of the distributed
// trace, including ones recorded on peer nodes.
//
// Every request is also traced by an in-memory flight recorder: a root
// span per request with child spans for each phase (queue wait, compile
// cache, tighten/encode, branch-and-bound solve, monitor build, the
// infer run, fleet rounds). The last -trace-ring completed traces — plus
// the slowest few per route, retained past ring churn — are listed at
// /debug/traces; one trace is fetched by id. For /v1/verify and
// /v1/analyze the trace id IS the job id the response echoes:
//
//	ID=$(curl -s localhost:8419/v1/verify -d @query.json | python3 -c \
//	  'import json,sys; print(json.load(sys.stdin)["id"])')
//	curl -s localhost:8419/debug/traces/$ID
//	{"id":"q00000001","route":"/v1/verify","duration_ms":12.4,
//	 "root":{"name":"/v1/verify","children":[
//	   {"name":"queue","duration_us":12},
//	   {"name":"cache","children":[{"name":"compile","children":[
//	     {"name":"tighten"},{"name":"encode"}]}]},
//	   {"name":"solve","children":[{"name":"property/0",...}]}]}}
//
// Traces cross node boundaries: requests carrying a W3C traceparent
// header join the caller's trace, every outbound fleet call injects
// one, and /debug/traces/{id} resolves ids it does not hold locally by
// asking peers (one hop; list filters: ?route= and ?limit=). A
// reconcile round therefore reads as one trace id with segments on
// both nodes — `vnnctl trace <id>` renders the whole tree.
//
// -slow-log 500ms logs every request slower than the threshold with its
// trace id, so the full span tree of an outlier is one curl away.
// -pprof mounts net/http/pprof under /debug/pprof/ (off by default; the
// path answers 404 unless the flag is set).
//
// # Shutdown semantics
//
// On SIGTERM/SIGINT the daemon drains: new queries are rejected with 503,
// running ones get -drain-grace to finish, the rest are interrupted via
// context cancellation and answer with their anytime results (best
// witness + tightest proven bound so far) before the process exits 0.
//
// Health is split into liveness and readiness. /healthz is liveness: it
// answers 200 for as long as the process can answer at all (reporting
// "draining" in the body), so supervisors do not kill a node that is
// merely draining or recovering. /readyz is readiness: 503 while the
// server drains and before registry recovery completes, 200 only when
// the node should receive traffic — the endpoint load balancers and
// rolling restarts should watch. /metrics reports cache
// hits/misses/evictions, queue depth, and this node's nodes, pivots,
// solves and encode/tighten passes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// parseGate turns the -gate flag into a validated default admission
// gate: "" means none, "@path" reads a JSON file, anything else is
// inline JSON. Unknown fields are rejected — a typoed threshold name
// silently weakening the gate is exactly the failure mode a
// certification gate exists to prevent.
func parseGate(arg string) (*vnn.GateSpec, error) {
	if arg == "" {
		return nil, nil
	}
	raw := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		raw = b
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	gate := new(vnn.GateSpec)
	if err := dec.Decode(gate); err != nil {
		return nil, fmt.Errorf("parse gate spec: %w", err)
	}
	if err := gate.Validate(); err != nil {
		return nil, fmt.Errorf("invalid gate spec: %w", err)
	}
	return gate, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vnnd: ")
	var (
		addr          = flag.String("addr", ":8419", "listen address")
		cacheEntries  = flag.Int("cache", 0, "compile cache capacity in entries (0 = 64)")
		maxConcurrent = flag.Int("max-concurrent", 0, "queries running at once (0 = GOMAXPROCS)")
		queueDepth    = flag.Int("queue", 0, "queries allowed to wait for a slot (0 = 256, negative = none)")
		timeout       = flag.Duration("timeout", 0, "default per-query budget when the request sets none (0 = unlimited)")
		drainGrace    = flag.Duration("drain-grace", 5*time.Second, "how long a drain lets running queries finish before interrupting them")
		maxBody       = flag.Int64("max-body", 0, "request body cap in bytes (0 = 32 MiB)")
		peers         = flag.String("peers", "", "comma-separated base URLs of sibling vnnd nodes to replicate caches with (empty = no reconcile loop)")
		fleetInterval = flag.Duration("fleet-interval", 0, "fleet reconcile period, jittered per round (0 = 30s)")
		nodeID        = flag.String("node-id", "", "stable node id used in traces, /metrics and /v1/fleet/metrics (empty = hostname plus a random suffix)")
		tenantCap     = flag.Int("tenant-cap", 0, fmt.Sprintf("distinct tenant labels tracked per node before new API keys fold into \"other\" (0 = %d)", obs.DefaultTenantCap))
		traceRing     = flag.Int("trace-ring", 0, "completed traces kept for /debug/traces (0 = 256, rounded up to a power of two)")
		slowLog       = flag.Duration("slow-log", 0, "log any request slower than this, with its trace id (0 = off)")
		pprofOn       = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; profiling endpoints expose internals)")
		dataDir       = flag.String("data-dir", "", "model registry persistence directory (empty = in-memory registry, lost on restart)")
		gateSpec      = flag.String("gate", "", "default admission gate for model submissions that carry none: inline GateSpec JSON, or @path to a JSON file (empty = ungated submissions are admitted)")
		version       = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()

	if *version {
		b := vnnserver.Build()
		log.Printf("version %s", b.Version)
		if b.Revision != "" {
			log.Printf("revision %s", b.Revision)
		}
		if b.Time != "" {
			log.Printf("built %s", b.Time)
		}
		log.Printf("go %s", b.Go)
		return
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}

	gate, err := parseGate(*gateSpec)
	if err != nil {
		log.Fatalf("-gate: %v", err)
	}

	srv := vnnserver.New(vnnserver.Config{
		CacheEntries:   *cacheEntries,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Peers:          peerList,
		FleetInterval:  *fleetInterval,
		NodeID:         *nodeID,
		TenantCap:      *tenantCap,
		TraceRing:      *traceRing,
		SlowRequest:    *slowLog,
		EnablePprof:    *pprofOn,
		DataDir:        *dataDir,
		DefaultGate:    gate,
		Log:            log.Printf,
	})
	if len(peerList) > 0 {
		log.Printf("fleet: reconciling with %d peer(s)", len(peerList))
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// The handler goes in before the listener comes up: a SIGTERM that
	// arrives right after the first /readyz 200 must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%v: draining (grace %v)", sig, *drainGrace)
	}

	// Drain first so interrupted queries hand their anytime results to
	// their handlers, then shut the listener down and wait for those
	// handlers to finish writing.
	srv.Drain(*drainGrace)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("shutdown: %v", err)
	}
	log.Printf("drained cleanly")
}
