// Package dataval treats training data as a specification artifact
// (paper Sec. II (C)): before a dataset may train a safety-relevant
// predictor, declarative rules check that it contains no forbidden
// behaviour — e.g. no sample in which the recorded driver moved left while
// the left slot was occupied. The package provides the rule machinery,
// violation reports, sanitization, and per-feature statistics; the concrete
// case-study rules live in package core where the feature semantics are
// assembled.
package dataval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/train"
)

// Rule is one validity condition over a single sample.
type Rule interface {
	// Name is a short stable identifier.
	Name() string
	// Description explains the rule for reports.
	Description() string
	// Check returns "" when the sample is valid, otherwise a short reason.
	Check(s train.Sample) string
}

// predicateRule adapts a closure to the Rule interface.
type predicateRule struct {
	name, desc string
	check      func(train.Sample) string
}

func (r *predicateRule) Name() string                { return r.name }
func (r *predicateRule) Description() string         { return r.desc }
func (r *predicateRule) Check(s train.Sample) string { return r.check(s) }

// NewRule builds a rule from a closure. check returns "" for valid samples.
func NewRule(name, desc string, check func(train.Sample) string) Rule {
	return &predicateRule{name: name, desc: desc, check: check}
}

// FiniteRule rejects samples containing NaN or infinite values.
func FiniteRule() Rule {
	return NewRule("finite-values", "every input and label value is finite", func(s train.Sample) string {
		for i, v := range s.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Sprintf("x[%d] = %g", i, v)
			}
		}
		for i, v := range s.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Sprintf("y[%d] = %g", i, v)
			}
		}
		return ""
	})
}

// RangeRule enforces that all inputs stay inside [lo, hi].
func RangeRule(lo, hi float64) Rule {
	return NewRule("input-range",
		fmt.Sprintf("every input feature lies in [%g, %g]", lo, hi),
		func(s train.Sample) string {
			for i, v := range s.X {
				if v < lo || v > hi {
					return fmt.Sprintf("x[%d] = %g outside [%g, %g]", i, v, lo, hi)
				}
			}
			return ""
		})
}

// DimensionRule enforces fixed input/label dimensions.
func DimensionRule(xDim, yDim int) Rule {
	return NewRule("dimensions",
		fmt.Sprintf("inputs are %d-dimensional, labels %d-dimensional", xDim, yDim),
		func(s train.Sample) string {
			if len(s.X) != xDim {
				return fmt.Sprintf("len(x) = %d, want %d", len(s.X), xDim)
			}
			if len(s.Y) != yDim {
				return fmt.Sprintf("len(y) = %d, want %d", len(s.Y), yDim)
			}
			return ""
		})
}

// Violation records one rule failure.
type Violation struct {
	SampleIndex int
	Rule        string
	Reason      string
}

// Report is the outcome of validating a dataset.
type Report struct {
	Samples    int
	Violations []Violation
	// PerRule counts violations by rule name.
	PerRule map[string]int
}

// Valid reports whether the dataset passed every rule.
func (r *Report) Valid() bool { return len(r.Violations) == 0 }

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataset validation: %d samples, %d violations\n", r.Samples, len(r.Violations))
	names := make([]string, 0, len(r.PerRule))
	for n := range r.PerRule {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-28s %d\n", n, r.PerRule[n])
	}
	return b.String()
}

// Validate checks every sample against every rule.
func Validate(data []train.Sample, rules []Rule) *Report {
	rep := &Report{Samples: len(data), PerRule: map[string]int{}}
	for i, s := range data {
		for _, rule := range rules {
			if reason := rule.Check(s); reason != "" {
				rep.Violations = append(rep.Violations, Violation{SampleIndex: i, Rule: rule.Name(), Reason: reason})
				rep.PerRule[rule.Name()]++
			}
		}
	}
	return rep
}

// Sanitize returns the subset of data passing all rules, plus the removed
// count. Order is preserved.
func Sanitize(data []train.Sample, rules []Rule) (clean []train.Sample, removed int) {
	clean = make([]train.Sample, 0, len(data))
outer:
	for _, s := range data {
		for _, rule := range rules {
			if rule.Check(s) != "" {
				removed++
				continue outer
			}
		}
		clean = append(clean, s)
	}
	return clean, removed
}

// FeatureStats summarizes one input feature across a dataset.
type FeatureStats struct {
	Min, Max, Mean, Std float64
}

// Stats computes per-feature statistics; empty data yields nil. A feature
// is summarized over the samples that have it, so ragged data (which
// DimensionRule reports) is measured rather than refused.
func Stats(data []train.Sample) []FeatureStats {
	if len(data) == 0 {
		return nil
	}
	dim := 0
	for _, s := range data {
		dim = max(dim, len(s.X))
	}
	out := make([]FeatureStats, dim)
	n := make([]float64, dim)
	for i := range out {
		out[i].Min = math.Inf(1)
		out[i].Max = math.Inf(-1)
	}
	for _, s := range data {
		for i, v := range s.X {
			if v < out[i].Min {
				out[i].Min = v
			}
			if v > out[i].Max {
				out[i].Max = v
			}
			out[i].Mean += v
			n[i]++
		}
	}
	for i := range out {
		out[i].Mean /= n[i]
	}
	for _, s := range data {
		for i, v := range s.X {
			d := v - out[i].Mean
			out[i].Std += d * d
		}
	}
	for i := range out {
		out[i].Std = math.Sqrt(out[i].Std / n[i])
	}
	return out
}
