// Package lp implements a linear-programming solver over continuous
// variables with lower/upper bounds:
//
//	minimize (or maximize)  cᵀx
//	subject to              aᵢᵀx {≤,=,≥} bᵢ   for every constraint i
//	                        l ≤ x ≤ u          (entries may be ±Inf)
//
// The solver is a two-phase primal simplex on the full tableau with
// bounded-variable pivoting rules (nonbasic variables rest at a finite
// bound; entering variables may "bound flip" without a basis change).
// It is written for the network-verification workloads in this repository:
// dense problems with a few thousand variables and rows.
package lp

import (
	"fmt"
	"math"
	"sort"
)

// Inf is a convenience alias for +infinity used in variable bounds.
var Inf = math.Inf(1)

// Sense is the relation of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

// String returns the usual mathematical symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Term is one coefficient of a sparse linear expression.
type Term struct {
	Var   int     // variable index returned by AddVariable
	Coeff float64 // multiplier
}

// Constraint is one linear row of the model.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
	Name  string
}

// Variable describes one decision variable.
type Variable struct {
	Lower, Upper float64
	Obj          float64 // objective coefficient
	Name         string
}

// Model is a linear program under construction. The zero value is not
// usable; create models with NewModel.
type Model struct {
	vars     []Variable
	cons     []Constraint
	maximize bool
}

// NewModel returns an empty minimization model.
func NewModel() *Model {
	return &Model{}
}

// SetMaximize switches the objective direction. The default is minimize.
func (m *Model) SetMaximize(max bool) { m.maximize = max }

// Maximizing reports whether the model maximizes its objective.
func (m *Model) Maximizing() bool { return m.maximize }

// AddVariable adds a variable with the given bounds and returns its index.
// Bounds may be ±Inf. It panics if lower > upper.
func (m *Model) AddVariable(lower, upper float64, name string) int {
	if lower > upper {
		panic(fmt.Sprintf("lp: variable %q has lower %g > upper %g", name, lower, upper))
	}
	m.vars = append(m.vars, Variable{Lower: lower, Upper: upper, Name: name})
	return len(m.vars) - 1
}

// SetObjective sets the objective coefficient of variable v.
func (m *Model) SetObjective(v int, coeff float64) {
	m.vars[v].Obj = coeff
}

// Objective returns the objective coefficient of variable v.
func (m *Model) Objective(v int) float64 { return m.vars[v].Obj }

// SetBounds replaces the bounds of variable v.
// It panics if lower > upper.
func (m *Model) SetBounds(v int, lower, upper float64) {
	if lower > upper {
		panic(fmt.Sprintf("lp: SetBounds(%d) lower %g > upper %g", v, lower, upper))
	}
	m.vars[v].Lower, m.vars[v].Upper = lower, upper
}

// Bounds returns the bounds of variable v.
func (m *Model) Bounds(v int) (lower, upper float64) {
	return m.vars[v].Lower, m.vars[v].Upper
}

// NumVariables returns the number of variables added so far.
func (m *Model) NumVariables() int { return len(m.vars) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddConstraint adds the row Σ terms {≤,=,≥} rhs and returns its index.
// The stored row lists its terms by increasing variable index, duplicate
// entries summed (in the order given) and zero coefficients dropped, so a
// row — and every rounding of EvalRow and FeasibilityError over it — is a
// function of the terms as a set, not of the order they arrived in. terms
// is not retained. It panics on a term that references an unknown variable.
func (m *Model) AddConstraint(terms []Term, sense Sense, rhs float64, name string) int {
	increasing, prev := true, -1
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.vars) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
		increasing = increasing && t.Var > prev
		prev = t.Var
	}
	if !increasing {
		// The general case: order a copy by variable, keeping equal
		// variables in input order, then sum each run into its first entry.
		// Strictly increasing input — what the network encoder emits, on
		// every request that compiles — skips this: one copy, no sort.
		sorted := append([]Term(nil), terms...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Var < sorted[j].Var })
		terms = sorted[:0]
		for _, t := range sorted {
			if n := len(terms); n > 0 && terms[n-1].Var == t.Var {
				terms[n-1].Coeff += t.Coeff
			} else {
				terms = append(terms, t)
			}
		}
	}
	nonzero := 0
	for _, t := range terms {
		if t.Coeff != 0 {
			nonzero++
		}
	}
	row := Constraint{Sense: sense, RHS: rhs, Name: name}
	if nonzero > 0 {
		row.Terms = make([]Term, 0, nonzero) // exact: the row lives as long as the model
		for _, t := range terms {
			if t.Coeff != 0 {
				row.Terms = append(row.Terms, t)
			}
		}
	}
	m.cons = append(m.cons, row)
	return len(m.cons) - 1
}

// Clone returns a copy whose bounds, objective and direction can be mutated
// — and to which variables and constraints can be added — without touching
// the original, which lets branch-and-bound fork bound sets cheaply. The
// term lists of existing rows are shared: no method mutates a row once
// AddConstraint has stored it.
func (m *Model) Clone() *Model {
	out := &Model{
		vars:     make([]Variable, len(m.vars)),
		cons:     make([]Constraint, len(m.cons)),
		maximize: m.maximize,
	}
	copy(out.vars, m.vars)
	copy(out.cons, m.cons)
	return out
}

// EvalRow evaluates constraint row i at the point x.
func (m *Model) EvalRow(i int, x []float64) float64 {
	var s float64
	for _, t := range m.cons[i].Terms {
		s += t.Coeff * x[t.Var]
	}
	return s
}

// EvalObjective evaluates the objective at the point x.
func (m *Model) EvalObjective(x []float64) float64 {
	var s float64
	for i, v := range m.vars {
		if v.Obj != 0 {
			s += v.Obj * x[i]
		}
	}
	return s
}

// FeasibilityError returns the largest violation of any bound or constraint
// at x. A return of 0 means x is exactly feasible; values below a small
// tolerance mean feasible in the numerical sense.
func (m *Model) FeasibilityError(x []float64) float64 {
	var worst float64
	for i, v := range m.vars {
		if d := v.Lower - x[i]; d > worst {
			worst = d
		}
		if d := x[i] - v.Upper; d > worst {
			worst = d
		}
	}
	for i, c := range m.cons {
		lhs := m.EvalRow(i, x)
		switch c.Sense {
		case LE:
			if d := lhs - c.RHS; d > worst {
				worst = d
			}
		case GE:
			if d := c.RHS - lhs; d > worst {
				worst = d
			}
		case EQ:
			if d := math.Abs(lhs - c.RHS); d > worst {
				worst = d
			}
		}
	}
	return worst
}
