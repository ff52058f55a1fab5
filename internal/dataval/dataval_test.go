package dataval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/train"
)

func sample(x, y []float64) train.Sample { return train.Sample{X: x, Y: y} }

func TestFiniteRule(t *testing.T) {
	r := FiniteRule()
	if r.Check(sample([]float64{1, 2}, []float64{3})) != "" {
		t.Fatal("finite sample rejected")
	}
	if r.Check(sample([]float64{1, math.NaN()}, []float64{3})) == "" {
		t.Fatal("NaN input accepted")
	}
	if r.Check(sample([]float64{1}, []float64{math.Inf(1)})) == "" {
		t.Fatal("Inf label accepted")
	}
}

func TestRangeRule(t *testing.T) {
	r := RangeRule(0, 1)
	if r.Check(sample([]float64{0, 0.5, 1}, nil)) != "" {
		t.Fatal("in-range sample rejected")
	}
	if r.Check(sample([]float64{1.01}, nil)) == "" {
		t.Fatal("out-of-range accepted")
	}
}

func TestDimensionRule(t *testing.T) {
	r := DimensionRule(2, 1)
	if r.Check(sample([]float64{1, 2}, []float64{3})) != "" {
		t.Fatal("correct dims rejected")
	}
	if r.Check(sample([]float64{1}, []float64{3})) == "" {
		t.Fatal("short input accepted")
	}
	if r.Check(sample([]float64{1, 2}, []float64{})) == "" {
		t.Fatal("short label accepted")
	}
}

func TestValidateReport(t *testing.T) {
	data := []train.Sample{
		sample([]float64{0.5}, []float64{0}),
		sample([]float64{2}, []float64{0}),          // range violation
		sample([]float64{math.NaN()}, []float64{0}), // finite violation (and range)
	}
	rep := Validate(data, []Rule{FiniteRule(), RangeRule(0, 1)})
	if rep.Valid() {
		t.Fatal("report claims valid")
	}
	if rep.Samples != 3 {
		t.Fatalf("samples = %d", rep.Samples)
	}
	if rep.PerRule["input-range"] < 1 || rep.PerRule["finite-values"] != 1 {
		t.Fatalf("per-rule counts wrong: %v", rep.PerRule)
	}
	if !strings.Contains(rep.String(), "violations") {
		t.Fatal("report string incomplete")
	}
}

func TestValidateCleanDataset(t *testing.T) {
	data := []train.Sample{sample([]float64{0.1}, []float64{1})}
	rep := Validate(data, []Rule{FiniteRule(), RangeRule(0, 1)})
	if !rep.Valid() || len(rep.Violations) != 0 {
		t.Fatal("clean dataset flagged")
	}
}

func TestSanitize(t *testing.T) {
	data := []train.Sample{
		sample([]float64{0.1}, []float64{0}),
		sample([]float64{5}, []float64{0}),
		sample([]float64{0.9}, []float64{0}),
	}
	clean, removed := Sanitize(data, []Rule{RangeRule(0, 1)})
	if removed != 1 || len(clean) != 2 {
		t.Fatalf("removed=%d len=%d", removed, len(clean))
	}
	if clean[0].X[0] != 0.1 || clean[1].X[0] != 0.9 {
		t.Fatal("order not preserved")
	}
}

func TestCustomRule(t *testing.T) {
	// The case-study shape: forbid positive lateral velocity labels when
	// feature 0 (left occupancy) is set.
	r := NewRule("no-left-move-when-occupied", "safety property holds in data", func(s train.Sample) string {
		if s.X[0] > 0.5 && s.Y[0] > 0 {
			return "moves left while left occupied"
		}
		return ""
	})
	if r.Check(sample([]float64{1}, []float64{0.5})) == "" {
		t.Fatal("risky sample accepted")
	}
	if r.Check(sample([]float64{0}, []float64{0.5})) != "" {
		t.Fatal("safe sample rejected")
	}
	if r.Name() == "" || r.Description() == "" {
		t.Fatal("metadata empty")
	}
}

func TestStats(t *testing.T) {
	data := []train.Sample{
		sample([]float64{1, 10}, nil),
		sample([]float64{3, 10}, nil),
	}
	st := Stats(data)
	if len(st) != 2 {
		t.Fatalf("stats len %d", len(st))
	}
	if st[0].Min != 1 || st[0].Max != 3 || st[0].Mean != 2 || st[0].Std != 1 {
		t.Fatalf("stats[0] = %+v", st[0])
	}
	if st[1].Std != 0 {
		t.Fatalf("constant feature std = %g", st[1].Std)
	}
	if Stats(nil) != nil {
		t.Fatal("empty data should give nil")
	}
}

// TestStatsRagged: a sample wider than the first one is measured, not a
// panic; each feature is summarized over the samples that have it.
func TestStatsRagged(t *testing.T) {
	st := Stats([]train.Sample{
		sample(nil, nil),
		sample([]float64{1, 5}, nil),
		sample([]float64{3}, nil),
	})
	if len(st) != 2 {
		t.Fatalf("stats len %d, want 2", len(st))
	}
	if st[0].Mean != 2 || st[0].Std != 1 || st[1].Min != 5 || st[1].Mean != 5 || st[1].Std != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
