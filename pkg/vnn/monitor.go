// Runtime monitoring: the operation-time pillar of the dependability
// portfolio. A proof quantifies over the certified input region; the
// monitor supervises what actually arrives in operation, flagging inputs
// whose activation pattern the training/coverage dataset never exercised
// (within a Hamming relaxation γ) before their predictions are trusted.
//
// BuildMonitor constructs the monitor against a CompiledNetwork so the
// build inherits the compiled artifact's proven pre-activation bounds:
// any dataset pattern interval analysis proves unreachable over the
// region is rejected at build time (it must come from an input the
// certificate never covered). The MonitorAudit analysis makes the monitor
// a dossier row; the vnnd /v1/infer endpoint serves it online.

package vnn

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/coverage"
	"repro/internal/linalg"
	"repro/internal/monitor"
)

// Re-exported monitor types. Aliases, not wrappers: values flow between
// the public API, the engine and the service without conversion.
type (
	// MonitorVerdict is the outcome of one runtime check: OK or
	// out-of-pattern with the offending layer and Hamming distance.
	MonitorVerdict = monitor.Verdict
	// MonitorBatchScratch is the per-goroutine state of the serving path
	// (see Monitor.CheckBatchInto): buffers only, so the zero value is
	// ready and one scratch serves any monitor over any network — and,
	// through its Forward field, unmonitored batches too. A server keeps
	// a free list of them, one per core.
	MonitorBatchScratch = monitor.BatchScratch
	// MonitorBuildStats reports what a monitor build did.
	MonitorBuildStats = monitor.BuildStats
)

// MonitorOptions tune BuildMonitor.
type MonitorOptions struct {
	// Gamma is the Hamming relaxation: an activation pattern within
	// distance Gamma of any remembered pattern (per monitored layer) is
	// accepted. 0 means exact-match monitoring.
	Gamma int
	// Layers selects the hidden ReLU layers to monitor by network layer
	// index; nil means all of them.
	Layers []int
}

// Monitor is a runtime activation-pattern monitor bound to the network of
// the CompiledNetwork it was built from. It is immutable and safe for
// concurrent use; the serving hot path checks through CheckBatchInto with
// a borrowed scratch, everything else through Check.
type Monitor struct {
	m *monitor.Monitor
	// networkFingerprint identifies the compile workload (network, region,
	// compile options) the monitor belongs to; the wire form carries it so
	// a service never pairs a monitor with the wrong artifact.
	networkFingerprint string
	// fingerprint is the monitor's name (see Fingerprint), computed once:
	// the monitor never changes.
	fingerprint string
}

// BuildMonitor builds a runtime monitor from the activation patterns data
// exercises, cross-checked against cn's proven pre-activation bounds:
// patterns that interval analysis proves unreachable over the compiled
// region are rejected at build time (see Stats().Rejected). The build is
// deterministic — the same compiled network, dataset order and options
// yield bit-identical pattern sets and fingerprints.
func BuildMonitor(cn *CompiledNetwork, data [][]float64, opts MonitorOptions) (*Monitor, error) {
	m, err := monitor.Build(cn.Net(), data, cn.c.PreActivationBounds(), monitor.Options{
		Gamma:  opts.Gamma,
		Layers: opts.Layers,
	})
	if err != nil {
		return nil, fmt.Errorf("vnn: build monitor: %w", err)
	}
	fp, err := Fingerprint(cn.Net(), cn.Region(), cn.opts)
	if err != nil {
		return nil, err
	}
	return &Monitor{m: m, networkFingerprint: fp, fingerprint: monitorName(fp, m.Fingerprint())}, nil
}

// Check classifies one input as a batch of one, allocating its own
// transient state. For the allocation-free form see CheckBatchInto.
func (m *Monitor) Check(x []float64) MonitorVerdict { return m.m.Check(x) }

// NewBatchScratch returns an empty scratch for CheckBatchInto; the zero
// MonitorBatchScratch is equally valid.
func (m *Monitor) NewBatchScratch() *MonitorBatchScratch { return new(MonitorBatchScratch) }

// CheckBatchInto is the serving path: one layer-major forward pass
// predicts and checks every input of the batch (a single input is a batch
// of one). Predictions are bit-identical to Network.ForwardBatchInto, and
// they and the verdicts do not depend on how inputs are cut into batches.
// dst, xs and verdicts must have equal length; sc must not be used
// concurrently.
func (m *Monitor) CheckBatchInto(dst [][]float64, sc *MonitorBatchScratch, xs [][]float64, verdicts []MonitorVerdict) {
	m.m.CheckBatchInto(dst, sc, xs, verdicts)
}

// Stats returns the build statistics (inputs scored, patterns stored,
// statically-unreachable patterns rejected).
func (m *Monitor) Stats() MonitorBuildStats { return m.m.Stats() }

// Gamma returns the Hamming relaxation.
func (m *Monitor) Gamma() int { return m.m.Gamma() }

// Layers returns the monitored network layer indices.
func (m *Monitor) Layers() []int { return m.m.Layers() }

// PatternCount returns the total number of stored patterns.
func (m *Monitor) PatternCount() int { return m.m.PatternCount() }

// Fingerprint returns the monitor's one name (vnnm1-): a hash over the
// compile workload it serves and its content (γ, layers, every stored
// pattern). Identical builds for one workload share it; any
// admitted-pattern or γ difference, or another workload, changes it. The
// server's store, the fleet, the registry and by-fingerprint /v1/infer
// requests all use this name.
func (m *Monitor) Fingerprint() string { return m.fingerprint }

// SizeBytes estimates the monitor's resident size (its stored patterns
// and their index), a deterministic accounting figure for cache byte
// budgets like CompiledNetwork.SizeBytes.
func (m *Monitor) SizeBytes() int64 { return m.m.SizeBytes() }

// NetworkFingerprint returns the fingerprint of the compile workload the
// monitor was built against (the vnnd cache key of its network).
func (m *Monitor) NetworkFingerprint() string { return m.networkFingerprint }

// MonitorDocJSON is the wire form of a marshaled monitor: the canonical
// monitor document plus the fingerprint of the compile workload it was
// built against, so a service can refuse to pair it with a different
// network.
type MonitorDocJSON struct {
	NetworkFingerprint string          `json:"network_fingerprint"`
	Monitor            json.RawMessage `json:"monitor"`
}

// MarshalMonitor renders the monitor in the shared wire schema. The bytes
// are canonical: two identical builds marshal byte-identically.
func MarshalMonitor(m *Monitor) ([]byte, error) {
	doc, err := m.m.Marshal()
	if err != nil {
		return nil, fmt.Errorf("vnn: marshal monitor: %w", err)
	}
	return json.Marshal(MonitorDocJSON{
		NetworkFingerprint: m.networkFingerprint,
		Monitor:            doc,
	})
}

// UnmarshalMonitor reconstructs a monitor from its wire form, binding it
// to cn. The embedded network fingerprint must match cn's compile
// workload — a monitor describes one certified artifact and must not be
// silently reused against another.
func UnmarshalMonitor(data []byte, cn *CompiledNetwork) (*Monitor, error) {
	var doc MonitorDocJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("vnn: unmarshal monitor: %w", err)
	}
	fp, err := Fingerprint(cn.Net(), cn.Region(), cn.opts)
	if err != nil {
		return nil, err
	}
	if doc.NetworkFingerprint != fp {
		return nil, fmt.Errorf("vnn: monitor belongs to workload %s, not %s", doc.NetworkFingerprint, fp)
	}
	m, err := monitor.Unmarshal(doc.Monitor, cn.Net())
	if err != nil {
		return nil, fmt.Errorf("vnn: unmarshal monitor: %w", err)
	}
	return &Monitor{m: m, networkFingerprint: fp, fingerprint: monitorName(fp, m.Fingerprint())}, nil
}

// MonitorFinding is the runtime-monitoring row of the portfolio: what the
// monitor remembered at build time and how much of freshly generated
// region traffic it flags.
type MonitorFinding struct {
	// Fingerprint is the built monitor's name (Monitor.Fingerprint).
	Fingerprint string
	// Gamma is the Hamming relaxation the monitor was built with.
	Gamma int
	// Layers are the monitored network layer indices.
	Layers []int
	// BuildInputs is the number of dataset rows scored at build time.
	BuildInputs int
	// RejectedUnreachable counts dataset patterns the static bounds
	// cross-check rejected as unreachable over the compiled region.
	RejectedUnreachable int
	// Patterns is the total number of stored patterns.
	Patterns int
	// Audited is the number of coverage-generated probe inputs checked;
	// Flagged of them were out-of-pattern.
	Audited, Flagged int
	// FlaggedFraction is Flagged/Audited (0 when nothing was audited).
	FlaggedFraction float64
	// Monitor is the built monitor, reusable by the caller (e.g. to serve
	// it, or marshal it next to the dossier).
	Monitor *Monitor
}

// MonitorAudit builds a runtime monitor from a dataset and audits it with
// coverage-generated inputs sampled from the compiled region: the
// reported fraction of generated inputs flagged as out-of-pattern
// estimates how much of the region's behaviour space the dataset's
// patterns actually span (a high fraction means operation will see novelty
// the monitor will surface). The explicit seed makes audits reproducible
// across runs and across the service.
type MonitorAudit struct {
	// Data is the dataset the monitor is built from (e.g. the training
	// set); required.
	Data [][]float64
	// Gamma is the Hamming relaxation (see MonitorOptions).
	Gamma int
	// Layers selects monitored layers; nil means all hidden ReLU layers.
	Layers []int
	// AuditTests bounds coverage-guided probe generation; 0 means 1000.
	AuditTests int
	// Seed seeds the probe generator.
	Seed int64
}

// Kind returns KindMonitorAudit.
func (ma *MonitorAudit) Kind() string { return KindMonitorAudit }

// Validate checks the dataset shape and parameter domains.
func (ma *MonitorAudit) Validate(net *Network, _ *Region) error {
	if len(ma.Data) == 0 {
		return fmt.Errorf("monitor audit needs a build dataset")
	}
	if ma.Gamma < 0 {
		return fmt.Errorf("monitor audit gamma %d is negative", ma.Gamma)
	}
	if ma.AuditTests < 0 {
		return fmt.Errorf("monitor audit audit_tests %d is negative", ma.AuditTests)
	}
	relu := make(map[int]bool)
	for _, li := range net.ReLULayers() {
		relu[li] = true
	}
	if len(relu) == 0 {
		return fmt.Errorf("monitor audit needs a network with hidden ReLU layers")
	}
	prev := -1
	for _, li := range ma.Layers {
		if !relu[li] {
			return fmt.Errorf("monitor audit layer %d is not a hidden ReLU layer", li)
		}
		if li <= prev {
			return fmt.Errorf("monitor audit layers must be strictly ascending, got %v", ma.Layers)
		}
		prev = li
	}
	return validateInputDims(net, ma.Data)
}

// Run builds the monitor against the compiled bounds and audits it with
// coverage-generated region inputs.
func (ma *MonitorAudit) Run(ctx context.Context, cn *CompiledNetwork) (*Finding, error) {
	mon, err := BuildMonitor(cn, ma.Data, MonitorOptions{Gamma: ma.Gamma, Layers: ma.Layers})
	if err != nil {
		return nil, err
	}
	st := mon.Stats()
	f := &MonitorFinding{
		Fingerprint:         mon.Fingerprint(),
		Gamma:               mon.Gamma(),
		Layers:              mon.Layers(),
		BuildInputs:         st.Inputs,
		RejectedUnreachable: st.Rejected,
		Patterns:            mon.PatternCount(),
		Monitor:             mon,
	}
	tests := ma.AuditTests
	if tests == 0 {
		tests = 1000
	}
	lo, hi, genOpts := regionSampling(ctx, cn.Region())
	genOpts.MaxTests = tests
	// The probes are the same coverage-improving inputs a Coverage
	// analysis with this seed would generate — the audit measures how much
	// of that freshly exercised behaviour the dataset's patterns span.
	_, probes := coverage.Generate(cn.Net(), lo, hi, coverageSource(ma.Seed), genOpts)
	f.Audited = len(probes)
	verdicts := make([]MonitorVerdict, len(probes))
	mon.CheckBatchInto(linalg.NewMatrix(len(probes), cn.Net().OutputDim()), new(MonitorBatchScratch), probes, verdicts)
	for _, v := range verdicts {
		if !v.OK {
			f.Flagged++
		}
	}
	if f.Audited > 0 {
		f.FlaggedFraction = float64(f.Flagged) / float64(f.Audited)
	}
	return &Finding{Monitor: f}, nil
}
