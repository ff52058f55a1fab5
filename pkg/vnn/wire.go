// Wire schema: the one machine-readable encoding of verification inputs
// and results that every surface speaks — `annverify -json` on the
// command line and the vnnd HTTP service both emit Report/ResultJSON, and
// the service decodes its requests through PropertySpec/RegionSpec. A
// script that parses one parses the other.
//
// JSON cannot represent non-finite floats, so unbounded values (±Inf
// bounds before any search, the no-witness -Inf value) are encoded by
// omission: a missing "upper_bound" means no finite upper bound was
// proven. Finite float64 values survive the trip bit-exactly (Go emits
// the shortest representation that round-trips).

package vnn

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/lp"
)

// StatsJSON is the wire form of Stats.
type StatsJSON struct {
	ElapsedMS     float64 `json:"elapsed_ms"`
	Nodes         int     `json:"nodes"`
	LPPivots      int     `json:"lp_pivots"`
	Binaries      int     `json:"binaries"`
	StableNeurons int     `json:"stable_neurons"`
	HiddenNeurons int     `json:"hidden_neurons"`
}

// ResultJSON is the wire form of one Result. Pointer fields are omitted
// when the underlying value is non-finite (see the package comment).
type ResultJSON struct {
	// Property is the human-readable rendering of the answered property.
	Property string `json:"property"`
	// Outcome is "proved", "violated" or "inconclusive".
	Outcome string `json:"outcome"`
	Exact   bool   `json:"exact"`
	// Value is the best witnessed value; omitted when no witness exists.
	Value *float64 `json:"value,omitempty"`
	// LowerBound/UpperBound are the proven anytime bounds.
	LowerBound *float64  `json:"lower_bound,omitempty"`
	UpperBound *float64  `json:"upper_bound,omitempty"`
	Witness    []float64 `json:"witness,omitempty"`
	// Radius and Iterations are set by resilience queries only.
	Radius     *float64  `json:"radius,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
	Stats      StatsJSON `json:"stats"`
}

// JSON renders the result in the shared wire schema.
func (r *Result) JSON() ResultJSON {
	out := ResultJSON{
		Outcome:    r.Outcome.String(),
		Exact:      r.Exact,
		LowerBound: finitePtr(r.LowerBound),
		UpperBound: finitePtr(r.UpperBound),
		Witness:    r.Witness,
		Iterations: r.Iterations,
		Stats: StatsJSON{
			ElapsedMS:     float64(r.Stats.Elapsed.Microseconds()) / 1e3,
			Nodes:         r.Stats.Nodes,
			LPPivots:      r.Stats.LPPivots,
			Binaries:      r.Stats.Binaries,
			StableNeurons: r.Stats.StableNeurons,
			HiddenNeurons: r.Stats.HiddenNeurons,
		},
	}
	if r.Property != nil {
		out.Property = r.Property.String()
	}
	// Value is "the best witnessed value" (see Result): only a witness
	// makes it meaningful on the wire.
	if r.Witness != nil {
		out.Value = finitePtr(r.Value)
	}
	if r.Iterations > 0 {
		radius := r.Radius
		out.Radius = &radius
	}
	return out
}

// finitePtr boxes v, or returns nil when v cannot be represented in JSON.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// Report is the top-level machine-readable document for a batch of
// results; `annverify -json` prints one and every vnnd verify response
// embeds one.
type Report struct {
	// Network and Arch identify the analyzed network (optional metadata).
	Network string `json:"network,omitempty"`
	Arch    string `json:"arch,omitempty"`
	// Worst aggregates the batch verdict (see Worst).
	Worst   string       `json:"worst"`
	Results []ResultJSON `json:"results"`
	// Analyses carries the typed findings of an Analyze batch (one entry
	// per analysis, in request order); nil for plain verify reports. See
	// NewAnalysisReport.
	Analyses []FindingJSON `json:"analyses,omitempty"`
}

// NewReport assembles the shared report document from a Verify batch.
func NewReport(net *Network, results []*Result) Report {
	rep := Report{
		Worst:   Worst(results).String(),
		Results: make([]ResultJSON, 0, len(results)),
	}
	if net != nil {
		rep.Network = net.Name
		rep.Arch = net.ArchString()
	}
	for _, r := range results {
		rep.Results = append(rep.Results, r.JSON())
	}
	return rep
}

// PropertySpec is the wire form of one Property. Kind selects the
// constructor; the other fields are that constructor's arguments:
//
//	{"kind":"max", "outputs":[1,6]}                      MaxOverOutputs
//	{"kind":"min", "output":0}                           MinOutput
//	{"kind":"max_linear", "coeffs":{"0":1,"2":-1}}       MaxLinear
//	{"kind":"at_most", "output":1, "threshold":3}        AtMost
//	{"kind":"linear_at_most", "coeffs":{...}, "threshold":3}
//	{"kind":"resilience", "x0":[...], "output":1, "threshold":3,
//	 "max_iterations":10}                                ResilienceRadius
//
// Coefficient maps are keyed by decimal output index (JSON object keys
// are strings).
type PropertySpec struct {
	Kind          string             `json:"kind"`
	Outputs       []int              `json:"outputs,omitempty"`
	Output        *int               `json:"output,omitempty"`
	Coeffs        map[string]float64 `json:"coeffs,omitempty"`
	Threshold     *float64           `json:"threshold,omitempty"`
	X0            []float64          `json:"x0,omitempty"`
	MaxIterations int                `json:"max_iterations,omitempty"`
}

// Property builds the property the spec describes.
func (s *PropertySpec) Property() (Property, error) {
	switch s.Kind {
	case "max":
		outs := s.Outputs
		if len(outs) == 0 && s.Output != nil {
			outs = []int{*s.Output}
		}
		if len(outs) == 0 {
			return nil, fmt.Errorf("vnn: property %q needs outputs", s.Kind)
		}
		return MaxOverOutputs(outs...), nil
	case "min":
		if s.Output == nil {
			return nil, fmt.Errorf("vnn: property %q needs output", s.Kind)
		}
		return MinOutput(*s.Output), nil
	case "max_linear":
		coeffs, err := parseCoeffs(s.Coeffs)
		if err != nil {
			return nil, err
		}
		return MaxLinear(coeffs), nil
	case "at_most":
		if s.Output == nil || s.Threshold == nil {
			return nil, fmt.Errorf("vnn: property %q needs output and threshold", s.Kind)
		}
		return AtMost(*s.Output, *s.Threshold), nil
	case "linear_at_most":
		if s.Threshold == nil {
			return nil, fmt.Errorf("vnn: property %q needs threshold", s.Kind)
		}
		coeffs, err := parseCoeffs(s.Coeffs)
		if err != nil {
			return nil, err
		}
		return LinearAtMost(coeffs, *s.Threshold), nil
	case "resilience":
		if s.Output == nil || s.Threshold == nil {
			return nil, fmt.Errorf("vnn: property %q needs output and threshold", s.Kind)
		}
		if len(s.X0) == 0 {
			return nil, fmt.Errorf("vnn: property %q needs the nominal input x0", s.Kind)
		}
		return ResilienceRadius(s.X0, *s.Output, *s.Threshold, s.MaxIterations), nil
	case "":
		return nil, fmt.Errorf("vnn: property spec has no kind")
	default:
		return nil, fmt.Errorf("vnn: unknown property kind %q", s.Kind)
	}
}

// parseCoeffs converts a JSON coefficient object into the index-keyed map
// the property constructors take.
func parseCoeffs(raw map[string]float64) (map[int]float64, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("vnn: coeffs must be a non-empty index->coefficient object")
	}
	out := make(map[int]float64, len(raw))
	for k, v := range raw {
		i, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("vnn: coefficient key %q is not an output index", k)
		}
		if _, dup := out[i]; dup { // "1" and "+1": which wins would be map order
			return nil, fmt.Errorf("vnn: coefficient keys name index %d twice", i)
		}
		out[i] = v
	}
	return out, nil
}

// LinearConstraintSpec is the wire form of one linear input constraint.
type LinearConstraintSpec struct {
	// Coeffs is keyed by decimal input index.
	Coeffs map[string]float64 `json:"coeffs"`
	// Sense is "<=", ">=" or "=".
	Sense string  `json:"sense"`
	RHS   float64 `json:"rhs"`
	Name  string  `json:"name,omitempty"`
}

// RegionSpec is the wire form of an input region: either one of the
// paper's named case-study regions,
//
//	{"name":"left_occupied"}   LeftOccupiedRegion
//	{"name":"front_close"}     FrontCloseRegion
//
// or an explicit box (one [lo, hi] pair per input) with optional linear
// constraints:
//
//	{"box":[[0,1],[0,1]], "linear":[{"coeffs":{"0":1,"1":1},
//	 "sense":"<=", "rhs":1.5}]}
type RegionSpec struct {
	Name   string                 `json:"name,omitempty"`
	Box    [][2]float64           `json:"box,omitempty"`
	Linear []LinearConstraintSpec `json:"linear,omitempty"`
}

// Region builds the region the spec describes.
func (s *RegionSpec) Region() (*Region, error) {
	if s.Name != "" {
		if len(s.Box) != 0 || len(s.Linear) != 0 {
			return nil, fmt.Errorf("vnn: region name %q excludes an explicit box", s.Name)
		}
		switch s.Name {
		case "left_occupied":
			return LeftOccupiedRegion(), nil
		case "front_close":
			return FrontCloseRegion(), nil
		default:
			return nil, fmt.Errorf("vnn: unknown region name %q", s.Name)
		}
	}
	if len(s.Box) == 0 {
		return nil, fmt.Errorf("vnn: region needs a name or a box")
	}
	region := &Region{Box: make([]Interval, len(s.Box))}
	for i, iv := range s.Box {
		region.Box[i] = Interval{Lo: iv[0], Hi: iv[1]}
	}
	for _, lc := range s.Linear {
		coeffs, err := parseCoeffs(lc.Coeffs)
		if err != nil {
			return nil, err
		}
		var sense lp.Sense
		switch lc.Sense {
		case "<=":
			sense = lp.LE
		case ">=":
			sense = lp.GE
		case "=", "==":
			sense = lp.EQ
		default:
			return nil, fmt.Errorf("vnn: constraint sense %q (want \"<=\", \">=\" or \"=\")", lc.Sense)
		}
		region.Linear = append(region.Linear, LinearConstraint{
			Coeffs: coeffs,
			Sense:  sense,
			RHS:    lc.RHS,
			Name:   lc.Name,
		})
	}
	return region, nil
}
