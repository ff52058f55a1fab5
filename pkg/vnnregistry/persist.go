// Registry persistence: a JSON snapshot (registry.json, written atomically
// via tmp+rename on every state change) plus an append-only transition log
// (transitions.log, one JSON line per lifecycle step — the audit trail the
// snapshot's per-version history summarizes). Recovery replays the
// snapshot through the injected compile cache — monitors are restored from
// their persisted documents — so a restarted daemon rebuilds its warm
// serving table from durable state alone.

package vnnregistry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/pkg/vnn"
)

const (
	// snapshotSchema versions the on-disk format.
	snapshotSchema = "vnnd-registry/v1"
	snapshotFile   = "registry.json"
	transitionsLog = "transitions.log"
)

// persister owns the registry's file handles. Mutating methods are called
// under the registry lock.
type persister struct {
	dir  string
	logf func(format string, args ...any)
	log  *os.File
}

// transitionRecord is one line of transitions.log.
type transitionRecord struct {
	AtUnixMS int64  `json:"at_unix_ms"`
	Model    string `json:"model"`
	Version  int    `json:"version"`
	From     string `json:"from,omitempty"`
	To       string `json:"to"`
	Reason   string `json:"reason,omitempty"`
}

func (p *persister) appendTransition(rec transitionRecord) {
	if p.dir == "" {
		return
	}
	if p.log == nil {
		f, err := os.OpenFile(filepath.Join(p.dir, transitionsLog),
			os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			p.logf("vnnregistry: transition log: %v", err)
			return
		}
		p.log = f
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = p.log.Write(append(line, '\n'))
	}
	if err != nil {
		p.logf("vnnregistry: transition log: %v", err)
	}
}

func (p *persister) close() error {
	if p.log == nil {
		return nil
	}
	err := p.log.Close()
	p.log = nil
	return err
}

// snapshotJSON is the registry.json document.
type snapshotJSON struct {
	Schema string              `json:"schema"`
	Models []modelSnapshotJSON `json:"models"`
}

type modelSnapshotJSON struct {
	Name     string                `json:"name"`
	PrevLive int                   `json:"previous_live,omitempty"`
	Versions []versionSnapshotJSON `json:"versions"`
}

// versionSnapshotJSON carries everything needed to rebuild a version's
// serving state: the canonical network document, region and compile
// options reproduce the compiled artifact (bit-identically — compilation
// is deterministic for a fingerprint), and the marshaled monitor document
// restores the exact serving monitor without its build dataset.
type versionSnapshotJSON struct {
	Version            int                   `json:"version"`
	State              State                 `json:"state"`
	Fingerprint        string                `json:"fingerprint"`
	Network            json.RawMessage       `json:"network"`
	Region             vnn.RegionSpec        `json:"region"`
	Tighten            bool                  `json:"tighten,omitempty"`
	Workers            int                   `json:"workers,omitempty"`
	CanaryPercent      int                   `json:"canary_percent,omitempty"`
	Gate               *vnn.GateSpec         `json:"gate,omitempty"`
	Decision           *vnn.GateDecisionJSON `json:"decision,omitempty"`
	GateError          string                `json:"gate_error,omitempty"`
	Monitor            json.RawMessage       `json:"monitor,omitempty"`
	MonitorFingerprint string                `json:"monitor_fingerprint,omitempty"`
	MonitorGamma       int                   `json:"monitor_gamma,omitempty"`
	MonitorLayers      []int                 `json:"monitor_layers,omitempty"`
	SubmittedUnixMS    int64                 `json:"submitted_unix_ms"`
	Transitions        []vnn.TransitionJSON  `json:"transitions,omitempty"`
}

// saveLocked writes the snapshot atomically. Persistence failures are
// logged, not fatal: in-memory state remains authoritative for this
// process, and the next successful save catches the disk up.
func (r *Registry) saveLocked() {
	if r.persist.dir == "" {
		return
	}
	snap := snapshotJSON{Schema: snapshotSchema}
	names := make([]string, 0, len(r.models))
	for name := range r.models {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic file content
	for _, name := range names {
		m := r.models[name]
		ms := modelSnapshotJSON{Name: m.name, PrevLive: m.prevLive}
		for _, v := range m.versions {
			ms.Versions = append(ms.Versions, versionSnapshotJSON{
				Version:            v.seq,
				State:              v.state,
				Fingerprint:        v.fingerprint,
				Network:            v.networkJSON,
				Region:             v.regionSpec,
				Tighten:            v.tighten,
				Workers:            v.workers,
				CanaryPercent:      v.canaryPercent,
				Gate:               v.gate,
				Decision:           v.decision,
				GateError:          v.gateErr,
				Monitor:            v.monitorDoc,
				MonitorFingerprint: v.monitorFP,
				MonitorGamma:       v.monitorOpts.Gamma,
				MonitorLayers:      v.monitorOpts.Layers,
				SubmittedUnixMS:    v.submitted.UnixMilli(),
				Transitions:        v.transitions,
			})
		}
		snap.Models = append(snap.Models, ms)
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		r.logf("vnnregistry: snapshot marshal: %v", err)
		return
	}
	path := filepath.Join(r.persist.dir, snapshotFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		r.logf("vnnregistry: snapshot write: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		r.logf("vnnregistry: snapshot rename: %v", err)
	}
}

// Recover loads the snapshot (if any) and rebuilds serving state: every
// version in a routable-or-rollbackable state is recompiled through the
// injected cache and its monitor restored from the persisted document.
// Versions found pending — a gate interrupted by the crash — are rejected
// with the interruption recorded; certification never resumes implicitly.
// Until Recover returns, the registry answers ErrNotReady (and /readyz
// 503); liveness is unaffected. A load failure parks the registry in a
// permanent not-ready state with the reason reported, rather than serving
// from a half-read table.
func (r *Registry) Recover(ctx context.Context) error {
	fail := func(err error) error {
		msg := err.Error()
		r.readyErr.Store(&msg)
		r.recovering.Store(false)
		r.logf("vnnregistry: %v", err)
		return err
	}
	if r.persist.dir != "" {
		if err := os.MkdirAll(r.persist.dir, 0o755); err != nil {
			return fail(fmt.Errorf("recover: %w", err))
		}
		data, err := os.ReadFile(filepath.Join(r.persist.dir, snapshotFile))
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Fresh data dir: nothing to recover.
		case err != nil:
			return fail(fmt.Errorf("recover: %w", err))
		default:
			var snap snapshotJSON
			if err := json.Unmarshal(data, &snap); err != nil {
				return fail(fmt.Errorf("recover: %s: %w", snapshotFile, err))
			}
			if snap.Schema != snapshotSchema {
				return fail(fmt.Errorf("recover: %s has schema %q, want %q", snapshotFile, snap.Schema, snapshotSchema))
			}
			if err := r.load(ctx, &snap); err != nil {
				return fail(fmt.Errorf("recover: %w", err))
			}
		}
	}
	r.mu.Lock()
	r.rebuildRoutesLocked()
	r.saveLocked()
	r.mu.Unlock()
	r.recovering.Store(false)
	r.ready.Store(true)
	return nil
}

// load rebuilds models from a decoded snapshot.
func (r *Registry) load(ctx context.Context, snap *snapshotJSON) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ms := range snap.Models {
		m := &model{name: ms.Name, prevLive: ms.PrevLive}
		for i := range ms.Versions {
			vs := &ms.Versions[i]
			v, err := r.loadVersion(ctx, ms.Name, vs)
			if err != nil {
				return fmt.Errorf("model %s v%d: %w", ms.Name, vs.Version, err)
			}
			m.versions = append(m.versions, v)
		}
		r.models[ms.Name] = m
	}
	return nil
}

// loadVersion rebuilds one version, recompiling warm state where its
// lifecycle needs it.
func (r *Registry) loadVersion(ctx context.Context, modelName string, vs *versionSnapshotJSON) (*Version, error) {
	net, err := vnn.UnmarshalNetwork(vs.Network)
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	region, err := vs.Region.Region()
	if err != nil {
		return nil, fmt.Errorf("region: %w", err)
	}
	v := &Version{
		model:         modelName,
		seq:           vs.Version,
		state:         vs.State,
		fingerprint:   vs.Fingerprint,
		networkJSON:   vs.Network,
		regionSpec:    vs.Region,
		tighten:       vs.Tighten,
		workers:       vs.Workers,
		canaryPercent: vs.CanaryPercent,
		gate:          vs.Gate,
		decision:      vs.Decision,
		gateErr:       vs.GateError,
		monitorDoc:    vs.Monitor,
		monitorFP:     vs.MonitorFingerprint,
		monitorOpts:   vnn.MonitorOptions{Gamma: vs.MonitorGamma, Layers: vs.MonitorLayers},
		submitted:     time.UnixMilli(vs.SubmittedUnixMS),
		transitions:   vs.Transitions,
		net:           net,
		region:        region,
	}
	if v.state == StatePending {
		// The crash interrupted this version's gate; its certification
		// never completed, so it must not resume into admitted silently.
		v.gateErr = "gate interrupted by daemon restart"
		r.transitionLocked(v, StateRejected, v.gateErr)
		return v, nil
	}
	if v.state == StateRejected {
		return v, nil
	}
	// admitted/canary/live/retired all keep warm artifacts: live and
	// canary to serve, admitted to promote, retired to roll back to.
	opts := vnn.Options{Tighten: v.tighten, Workers: v.workers}
	cn, err := r.cfg.Compile(ctx, v.fingerprint, net, region, opts)
	if err != nil {
		return nil, fmt.Errorf("recompile: %w", err)
	}
	v.cn = cn
	if len(v.monitorDoc) > 0 {
		mon, err := vnn.UnmarshalMonitor(v.monitorDoc, cn)
		if err != nil {
			return nil, fmt.Errorf("monitor: %w", err)
		}
		v.monitor = mon
		if r.cfg.ImportMonitor != nil {
			r.cfg.ImportMonitor(mon)
		}
	}
	return v, nil
}
