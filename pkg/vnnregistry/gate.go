// The gate's outcome: the host runs a pending version's certification —
// compile, serving-monitor build and the gate's portfolio analyses, on the
// same solve path as any other query — and reports how it ended. The
// registry evaluates the findings (vnn.GateSpec.Evaluate) and owns the
// state change.

package vnnregistry

import (
	"encoding/json"
	"fmt"

	"repro/pkg/vnn"
)

// Decide settles a pending version from its completed gate run: cn is the
// serving artifact, mon the serving monitor (nil when the submission
// carried no monitor workload) and findings the gate's portfolio, one per
// gate analysis in order. The version transitions to admitted or rejected
// as the gate's thresholds decide; a nil gate admits — the version is
// explicitly recorded as ungated. Either way the artifacts stay attached,
// so an admitted version promotes without recompiling and a rejected
// one's dossier can be re-examined. An error leaves the version pending:
// report it through FailGate.
func (r *Registry) Decide(v *Version, cn *vnn.CompiledNetwork, mon *vnn.Monitor, findings []*vnn.Finding) (vnn.ModelVersionJSON, error) {
	if !r.ready.Load() {
		return vnn.ModelVersionJSON{}, ErrNotReady
	}
	var monDoc json.RawMessage
	if mon != nil {
		var err error
		if monDoc, err = vnn.MarshalMonitor(mon); err != nil {
			return vnn.ModelVersionJSON{}, fmt.Errorf("monitor marshal: %w", err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.state != StatePending {
		return vnn.ModelVersionJSON{}, fmt.Errorf("%w: gate on version %d in state %s", ErrBadTransition, v.seq, v.state)
	}
	decision, reason := vnn.GateDecisionJSON{Pass: true}, "admitted without gate (none configured)"
	if v.gate != nil {
		decision = v.gate.Evaluate(findings)
		reason = fmt.Sprintf("gate passed (%d checks)", len(decision.Checks))
	}
	to := StateAdmitted
	if !decision.Pass {
		to, reason = StateRejected, "gate failed: "+decision.FailReason()
	}
	v.cn, v.monitor, v.monitorDoc, v.decision = cn, mon, monDoc, &decision
	r.transitionLocked(v, to, reason)
	r.saveLocked()
	return r.docLocked(v), nil
}

// FailGate rejects a pending version whose gate run did not complete —
// compile failure, analysis error, a budget that expired where no anytime
// answer exists — with the cause recorded: a version whose certification
// did not finish must never become routable.
func (r *Registry) FailGate(v *Version, cause error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.state != StatePending {
		return fmt.Errorf("%w: gate on version %d in state %s", ErrBadTransition, v.seq, v.state)
	}
	v.gateErr = cause.Error()
	r.transitionLocked(v, StateRejected, "gate failed: "+v.gateErr)
	r.saveLocked()
	return nil
}
