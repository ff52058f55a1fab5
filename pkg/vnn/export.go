// Fleet wire format: a compiled artifact as bytes. MarshalCompiled
// renders everything a peer needs to serve a workload — the canonical
// network, the explicit region, the compile-relevant options and the
// proven bound analysis — and UnmarshalCompiled reconstructs a
// CompiledNetwork from it WITHOUT recompiling: only the MILP encoding
// (a deterministic, propagation-free transcription) is rebuilt locally.
//
// Trust is re-derived, never assumed: the importer recomputes the
// workload fingerprint from the decoded network/region/options and
// refuses a mismatch, and the received bounds are checked for
// containment in a fresh plain interval propagation — tightening only
// ever shrinks intervals, so any received interval that is not inside
// the plain propagation is corrupt (or unsound) and the import fails.
package vnn

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/bounds"
	"repro/internal/lp"
	"repro/internal/verify"
)

// intervalJSON is one [lo, hi] pair on the wire; finite float64 values
// round-trip bit-exactly through Go's JSON encoding.
type intervalJSON = [2]float64

// CompiledDocJSON is the wire form of a compiled artifact.
type CompiledDocJSON struct {
	// Fingerprint is the compile-workload hash the document claims;
	// the importer recomputes and verifies it.
	Fingerprint string `json:"fingerprint"`
	// Network is the canonical network JSON (MarshalNetwork).
	Network json.RawMessage `json:"network"`
	// Region is the explicit region (box + linear constraints; never a
	// name, so the document is self-contained).
	Region RegionSpec `json:"region"`
	// Tighten records the compile-relevant option (part of the
	// fingerprint preimage).
	Tighten bool `json:"tighten,omitempty"`
	// Pre and Post are the proven per-layer bound analysis, one
	// [lo, hi] row per neuron per network layer, exactly as compiled
	// (LP-tightened when Tighten is set).
	Pre  [][]intervalJSON `json:"pre"`
	Post [][]intervalJSON `json:"post"`
}

// regionSpecOf renders a Region as an explicit, self-contained wire
// spec (the inverse of RegionSpec.Region for explicit regions; named
// regions are flattened to their boxes).
func regionSpecOf(r *Region) RegionSpec {
	spec := RegionSpec{Box: make([][2]float64, len(r.Box))}
	for i, iv := range r.Box {
		spec.Box[i] = [2]float64{iv.Lo, iv.Hi}
	}
	for _, lc := range r.Linear {
		coeffs := make(map[string]float64, len(lc.Coeffs))
		for i, v := range lc.Coeffs {
			coeffs[strconv.Itoa(i)] = v
		}
		sense := "<="
		switch lc.Sense {
		case lp.GE:
			sense = ">="
		case lp.EQ:
			sense = "="
		}
		spec.Linear = append(spec.Linear, LinearConstraintSpec{
			Coeffs: coeffs,
			Sense:  sense,
			RHS:    lc.RHS,
			Name:   lc.Name,
		})
	}
	return spec
}

// exportIntervals renders interval rows, rejecting non-finite values
// (JSON cannot carry them, and no sound compile over a valid region
// produces them).
func exportIntervals(rows []Interval) ([]intervalJSON, error) {
	out := make([]intervalJSON, len(rows))
	for i, iv := range rows {
		if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
			return nil, fmt.Errorf("vnn: non-finite bound [%v, %v] cannot be exported", iv.Lo, iv.Hi)
		}
		out[i] = intervalJSON{iv.Lo, iv.Hi}
	}
	return out, nil
}

// MarshalCompiled renders cn as a self-contained document a peer can
// import with UnmarshalCompiled. For a fixed artifact the bytes are
// deterministic, and every float survives the trip bit-exactly.
func MarshalCompiled(cn *CompiledNetwork) ([]byte, error) {
	netDoc, err := MarshalNetwork(cn.Net())
	if err != nil {
		return nil, err
	}
	fp, err := Fingerprint(cn.Net(), cn.Region(), cn.opts)
	if err != nil {
		return nil, err
	}
	nb := cn.c.Bounds()
	doc := CompiledDocJSON{
		Fingerprint: fp,
		Network:     netDoc,
		Region:      regionSpecOf(cn.Region()),
		Tighten:     cn.opts.Tighten,
		Pre:         make([][]intervalJSON, len(nb.Layers)),
		Post:        make([][]intervalJSON, len(nb.Layers)),
	}
	for li, lb := range nb.Layers {
		if doc.Pre[li], err = exportIntervals(lb.Pre); err != nil {
			return nil, err
		}
		if doc.Post[li], err = exportIntervals(lb.Post); err != nil {
			return nil, err
		}
	}
	return json.Marshal(doc)
}

// importIntervals parses one layer's interval rows, checking shape,
// finiteness, ordering, and containment inside the corresponding
// plainly-propagated intervals (see UnmarshalCompiled).
func importIntervals(rows []intervalJSON, plain []Interval, what string, layer int) ([]Interval, error) {
	if len(rows) != len(plain) {
		return nil, fmt.Errorf("vnn: layer %d has %d %s bounds, network needs %d", layer, len(rows), what, len(plain))
	}
	out := make([]Interval, len(rows))
	for i, r := range rows {
		lo, hi := r[0], r[1]
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || lo > hi {
			return nil, fmt.Errorf("vnn: layer %d %s bound %d is not a finite interval: [%v, %v]", layer, what, i, lo, hi)
		}
		if lo < plain[i].Lo || hi > plain[i].Hi {
			return nil, fmt.Errorf("vnn: layer %d %s bound %d [%v, %v] is not contained in the propagated [%v, %v] — corrupt or unsound document",
				layer, what, i, lo, hi, plain[i].Lo, plain[i].Hi)
		}
		out[i] = Interval{Lo: lo, Hi: hi}
	}
	return out, nil
}

// UnmarshalCompiled reconstructs a compiled artifact from its wire
// form without recompiling (no bound propagation or tightening passes
// beyond one plain propagation used as the soundness check, and zero
// CompilePhases). The document's fingerprint is
// recomputed from its decoded content and must match, so a tampered
// network, region or option never enters a cache under a healthy key;
// the bound analysis must be contained in a fresh plain propagation,
// so tampered bounds cannot smuggle unsoundness in either. Returns the
// artifact and its verified fingerprint.
func UnmarshalCompiled(data []byte) (*CompiledNetwork, string, error) {
	var doc CompiledDocJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, "", fmt.Errorf("vnn: unmarshal compiled: %w", err)
	}
	net, err := UnmarshalNetwork(doc.Network)
	if err != nil {
		return nil, "", err
	}
	if doc.Region.Name != "" {
		return nil, "", fmt.Errorf("vnn: compiled document region must be explicit, got name %q", doc.Region.Name)
	}
	region, err := doc.Region.Region()
	if err != nil {
		return nil, "", err
	}
	opts := Options{Tighten: doc.Tighten}
	fp, err := Fingerprint(net, region, opts)
	if err != nil {
		return nil, "", err
	}
	if fp != doc.Fingerprint {
		return nil, "", fmt.Errorf("vnn: compiled document claims fingerprint %s, content hashes to %s", doc.Fingerprint, fp)
	}

	// Soundness gate: plain interval propagation is monotone, and
	// tightening only intersects, so every honestly compiled interval is
	// contained in the plain one. Anything outside is corrupt.
	plain, err := bounds.Propagate(net, region.Box)
	if err != nil {
		return nil, "", err
	}
	if len(doc.Pre) != len(plain.Layers) || len(doc.Post) != len(plain.Layers) {
		return nil, "", fmt.Errorf("vnn: compiled document has %d/%d bound layers, network has %d",
			len(doc.Pre), len(doc.Post), len(plain.Layers))
	}
	nb := &bounds.NetworkBounds{
		Input:  append([]Interval(nil), plain.Input...),
		Layers: make([]bounds.LayerBounds, len(plain.Layers)),
	}
	for li := range plain.Layers {
		pre, err := importIntervals(doc.Pre[li], plain.Layers[li].Pre, "pre", li)
		if err != nil {
			return nil, "", err
		}
		post, err := importIntervals(doc.Post[li], plain.Layers[li].Post, "post", li)
		if err != nil {
			return nil, "", err
		}
		nb.Layers[li] = bounds.LayerBounds{Pre: pre, Post: post}
	}

	c, err := verify.CompileWithBounds(net, region, nb, doc.Tighten)
	if err != nil {
		return nil, "", err
	}
	return &CompiledNetwork{c: c, opts: opts}, fp, nil
}

// Options returns the compile options the artifact was built (or will
// be queried) with.
func (cn *CompiledNetwork) Options() Options { return cn.opts }

// SizeBytes estimates the resident size of the compiled artifact:
// weights, biases and the bound analysis, plus a flat overhead for the
// encoding skeleton. It is a deterministic accounting figure for cache
// byte budgets (vnnd.cache.bytes), not a malloc census.
func (cn *CompiledNetwork) SizeBytes() int64 {
	const fixedOverhead = 1 << 10
	var n int64 = fixedOverhead
	if cn.c == nil {
		return n // zero-value artifact (tests): just the overhead
	}
	for _, l := range cn.Net().Layers {
		n += int64(len(l.B)) * 8
		for _, row := range l.W {
			n += int64(len(row)) * 8
		}
		// Pre+post interval per neuron (2 × 2 float64), plus the MILP
		// encoding's per-neuron variables and rows, which mirror the
		// weight matrix closely enough to charge it once more.
		n += int64(len(l.B)) * 32
		for _, row := range l.W {
			n += int64(len(row)) * 8
		}
	}
	return n
}
