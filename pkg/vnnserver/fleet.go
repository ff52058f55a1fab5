// Fleet plane: the Server as a vnnfleet.Store. The replicable set is
// the union of the compile cache (vnn1- workload fingerprints) and the
// built monitors (vnnm1- content fingerprints); exports render the
// canonical wire documents, imports re-verify everything and insert
// through the same singleflight caches local requests use — so a
// concurrent local compile and a remote pull collapse to one entry,
// and a pulled compile immediately serves by-fingerprint /v1/infer.
package vnnserver

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/pkg/vnn"
	"repro/pkg/vnnfleet"
)

// FleetFingerprints snapshots every replicable fingerprint: completed
// compiles and built monitors.
func (s *Server) FleetFingerprints() []string {
	var keys []string
	for _, a := range s.cache.snapshot() {
		keys = append(keys, a.key)
	}
	return append(keys, s.monitors.contentKeys()...)
}

// ExportEntry renders one cached entry in its canonical wire form.
func (s *Server) ExportEntry(fingerprint string) (*vnnfleet.WorkloadExport, error) {
	if strings.HasPrefix(fingerprint, "vnnm1-") {
		mon, ok := s.monitors.lookupContent(fingerprint)
		if !ok {
			return nil, vnnfleet.ErrNotFound
		}
		doc, err := vnn.MarshalMonitor(mon)
		if err != nil {
			return nil, err
		}
		return &vnnfleet.WorkloadExport{
			Fingerprint: fingerprint,
			Kind:        vnnfleet.KindMonitor,
			Monitor:     doc,
		}, nil
	}
	cn, ok := s.cache.lookup(fingerprint, false)
	if !ok {
		return nil, vnnfleet.ErrNotFound
	}
	doc, err := vnn.MarshalCompiled(cn)
	if err != nil {
		return nil, err
	}
	return &vnnfleet.WorkloadExport{
		Fingerprint: fingerprint,
		Kind:        vnnfleet.KindCompile,
		Compiled:    doc,
	}, nil
}

// ImportEntry verifies one pulled entry and inserts it. Compiles are
// reconstructed without recompiling (vnn.UnmarshalCompiled recomputes
// the fingerprint from content and containment-checks the bounds);
// monitors re-derive their content hash and need their compile
// workload cached first (ErrDependency otherwise — a later round
// retries once the compile has replicated).
func (s *Server) ImportEntry(_ context.Context, exp *vnnfleet.WorkloadExport) error {
	if s.draining.Load() {
		return vnnfleet.ErrDraining
	}
	switch exp.Kind {
	case vnnfleet.KindCompile:
		cn, fp, err := vnn.UnmarshalCompiled(exp.Compiled)
		if err != nil {
			return fmt.Errorf("%w: %v", vnnfleet.ErrVerify, err)
		}
		if fp != exp.Fingerprint {
			return fmt.Errorf("%w: document content hashes to %s, export claims %s", vnnfleet.ErrVerify, fp, exp.Fingerprint)
		}
		// Cached, the compile also serves by-fingerprint /v1/infer here.
		s.cache.add(fp, cn)
		return nil
	case vnnfleet.KindMonitor:
		var doc vnn.MonitorDocJSON
		if err := json.Unmarshal(exp.Monitor, &doc); err != nil {
			return fmt.Errorf("%w: %v", vnnfleet.ErrVerify, err)
		}
		cn, ok := s.cache.lookup(doc.NetworkFingerprint, false)
		if !ok {
			return fmt.Errorf("monitor %s needs workload %s: %w", exp.Fingerprint, doc.NetworkFingerprint, vnnfleet.ErrDependency)
		}
		// UnmarshalMonitor re-checks the workload binding against cn; the
		// content hash is then recomputed from the decoded patterns, so a
		// tampered monitor cannot enter the cache under a healthy key.
		mon, err := vnn.UnmarshalMonitor(exp.Monitor, cn)
		if err != nil {
			return fmt.Errorf("%w: %v", vnnfleet.ErrVerify, err)
		}
		if mon.Fingerprint() != exp.Fingerprint {
			return fmt.Errorf("%w: monitor content hashes to %s, export claims %s", vnnfleet.ErrVerify, mon.Fingerprint(), exp.Fingerprint)
		}
		s.monitors.importContent(mon)
		return nil
	default:
		return fmt.Errorf("%w: unknown workload kind %q", vnnfleet.ErrVerify, exp.Kind)
	}
}

// Fleet exposes the fleet peer (stats and tests). Nil only before New
// has run.
func (s *Server) Fleet() *vnnfleet.Peer { return s.fleet }
