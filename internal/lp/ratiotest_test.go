package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rescanPick is the dual ratio test as dualIterate ran it before the
// candidate list: a full-width scan of row r against the live statuses,
// bounds and reduced costs, repeated from scratch for every decision. It is
// the reference the one-scan list must reproduce.
func (tb *tableau) rescanPick(r int, below bool) int {
	row := tb.t[r]
	best, bestRatio, bestAbs := -1, math.Inf(1), 0.0
	for j := 0; j < tb.width; j++ {
		if tb.status[j] == basic || tb.lower[j] == tb.upper[j] {
			continue
		}
		a := row[j]
		if math.Abs(a) < pivotTol {
			continue
		}
		switch tb.status[j] {
		case atLower:
			if (below && a >= 0) || (!below && a <= 0) {
				continue
			}
		case atUpper:
			if (below && a <= 0) || (!below && a >= 0) {
				continue
			}
		}
		ratio := math.Abs(tb.d[j]) / math.Abs(a)
		if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-12 && math.Abs(a) > bestAbs) {
			best, bestRatio, bestAbs = j, ratio, math.Abs(a)
		}
	}
	return best
}

// eagerDualIterate is dualIterate as it ran before the movable list:
// candidates rebuilt from a full-width scan for every row, every flip
// walked down its column at once, and the selection rescanned from the
// first candidate after every flip. It is the reference the list-based
// pass must reproduce bit for bit.
func (tb *tableau) eagerDualIterate() (dualOutcome, int) {
	budget := 6*tb.m + 100
	for steps := 0; ; steps++ {
		if tb.iters >= tb.maxIters || tb.cancelled() {
			return dualInterrupted, -1
		}
		if steps > budget {
			return dualStalled, -1
		}
		r := tb.mostInfeasibleRow()
		if r < 0 {
			return dualRestored, -1
		}
		bi := tb.basis[r]
		below := tb.x[bi] < tb.lower[bi]
		var target float64
		var leaveAt varStatus
		if below {
			target, leaveAt = tb.lower[bi], atLower
		} else {
			target, leaveAt = tb.upper[bi], atUpper
		}
		row := tb.t[r]
		var cands []ratioCand
		for j := 0; j < tb.width; j++ {
			if tb.status[j] == basic || tb.lower[j] == tb.upper[j] {
				continue
			}
			a := row[j]
			if math.Abs(a) < pivotTol {
				continue
			}
			switch tb.status[j] {
			case atLower:
				if (below && a >= 0) || (!below && a <= 0) {
					continue
				}
			case atUpper:
				if (below && a <= 0) || (!below && a >= 0) {
					continue
				}
			}
			cands = append(cands, ratioCand{col: j, ratio: math.Abs(tb.d[j]) / math.Abs(a), abs: math.Abs(a)})
		}
		for tb.violated(bi) {
			deltaB := target - tb.x[bi]
			k, bestRatio, bestAbs := -1, math.Inf(1), 0.0
			for i, c := range cands {
				if c.ratio < bestRatio-1e-12 || (c.ratio <= bestRatio+1e-12 && c.abs > bestAbs) {
					k, bestRatio, bestAbs = i, c.ratio, c.abs
				}
			}
			if k < 0 {
				return dualDeadEnd, r
			}
			best := cands[k].col
			deltaJ := deltaB / -row[best]
			rng := tb.upper[best] - tb.lower[best]
			if tb.status[best] != free && !math.IsInf(rng, 1) &&
				math.Abs(deltaB)-math.Abs(row[best])*rng > tb.tol*(1+math.Abs(target)) {
				var step float64
				if tb.status[best] == atLower {
					step = rng
					tb.status[best] = atUpper
					tb.x[best] = tb.upper[best]
				} else {
					step = -rng
					tb.status[best] = atLower
					tb.x[best] = tb.lower[best]
				}
				for i := 0; i < tb.m; i++ {
					if a := tb.t[i][best]; a != 0 {
						tb.x[tb.basis[i]] -= step * a
					}
				}
				tb.stats.BoundFlips++
				cands = append(cands[:k], cands[k+1:]...)
				continue
			}
			newXj := tb.x[best] + deltaJ
			for i := 0; i < tb.m; i++ {
				if a := tb.t[i][best]; a != 0 {
					tb.x[tb.basis[i]] -= deltaJ * a
				}
			}
			tb.status[bi] = leaveAt
			tb.x[bi] = target
			tb.pivot(r, best, newXj)
			tb.iters++
			tb.stats.DualPivots++
			break
		}
	}
}

// eagerComputeBasics is computeBasics as a full-width walk of every row.
func (tb *tableau) eagerComputeBasics() {
	for i := 0; i < tb.m; i++ {
		v := tb.rhsInv[i]
		row := tb.t[i]
		for j := 0; j < tb.width; j++ {
			if tb.status[j] != basic && tb.x[j] != 0 {
				v -= row[j] * tb.x[j]
			}
		}
		tb.x[tb.basis[i]] = v
	}
}

// eagerTwin solves a model with two solvers: the one under test and one
// running the eager reference loops.
type eagerTwin struct {
	s, ref *Solver
}

func newEagerTwin(m *Model) *eagerTwin {
	ref := NewSolver(m)
	ref.tb.refDual, ref.tb.refBasics = ref.tb.eagerDualIterate, ref.tb.eagerComputeBasics
	return &eagerTwin{s: NewSolver(m), ref: ref}
}

// solve re-solves both and demands the same solution and the same tableau
// state, bit for bit.
func (e *eagerTwin) solve(t *testing.T, where string) {
	t.Helper()
	got, err := e.s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.ref.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, where, got, want)
	a, b := e.s.tb, e.ref.tb
	for _, f := range []struct {
		name string
		x, y []float64
	}{{"x", a.x, b.x}, {"d", a.d, b.d}, {"rhsInv", a.rhsInv, b.rhsInv}, {"tableau", a.backing, b.backing}} {
		if !sameBits(f.x, f.y) {
			t.Fatalf("%s: %s differs from the reference", where, f.name)
		}
	}
	for j := range a.status {
		if a.status[j] != b.status[j] {
			t.Fatalf("%s: column %d status %d, reference %d", where, j, a.status[j], b.status[j])
		}
	}
	for i := range a.basis {
		if a.basis[i] != b.basis[i] {
			t.Fatalf("%s: row %d basic %d, reference %d", where, i, a.basis[i], b.basis[i])
		}
	}
	if e.s.Stats() != e.ref.Stats() {
		t.Fatalf("%s: stats %+v, reference %+v", where, e.s.Stats(), e.ref.Stats())
	}
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestDualPassMatchesEager runs TestRatioListMatchesRescan's two streams
// through the list-based dual pass and through the eager reference loops,
// and demands identical solutions, tableaus, values and counters after
// every solve.
func TestDualPassMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	var flips int
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(7)
		m := randomSensedLP(rng, n, 2+rng.Intn(6))
		orig := make([][2]float64, n)
		for v := range orig {
			orig[v][0], orig[v][1] = m.Bounds(v)
		}
		e := newEagerTwin(m)
		for step := 0; step <= 10; step++ {
			if step > 0 {
				v := rng.Intn(n)
				switch rng.Intn(5) {
				case 0:
					m.SetBounds(v, orig[v][0], orig[v][1])
				case 1, 2:
					m.SetBounds(v, orig[v][0], orig[v][0])
				default:
					m.SetBounds(v, orig[v][1], orig[v][1])
				}
			}
			e.solve(t, fmt.Sprintf("random trial %d step %d", trial, step))
		}
		flips += e.s.Stats().BoundFlips
	}
	if flips < 2000 {
		t.Fatalf("random stream too tame: %d flips", flips)
	}

	flips = 0
	for trial := 0; trial < 4; trial++ {
		m, ind := bigMNetLP(rand.New(rand.NewSource(int64(100+trial))), 84, []int{8, 8}, 10)
		e := newEagerTwin(m)
		for step := 0; step < 150; step++ {
			fixIndicator(m, ind, step)
			e.solve(t, fmt.Sprintf("big-M trial %d step %d", trial, step))
		}
		flips += e.s.Stats().BoundFlips
	}
	if flips < 10000 {
		t.Fatalf("big-M stream too tame: %d flips", flips)
	}
}

// pickAudit checks every ratio-test decision of a solver against the
// rescan, in the state the decision was taken in. Everything else in the
// dual loop is shared, so decisions that agree one by one are the same
// (flip…, enter) column sequence the rescan loop would have produced.
type pickAudit struct {
	t              *testing.T
	tb             *tableau
	picks, deadEnd int // decisions with a column, and without
	afterFlip      int // decisions taken over a list a flip had already struck from
	lastRow        int
}

func auditPicks(t *testing.T, s *Solver) *pickAudit {
	a := &pickAudit{t: t, tb: s.tb, lastRow: -1}
	s.tb.onPick = func(r int, below bool, col int) {
		if want := a.tb.rescanPick(r, below); col != want {
			t.Fatalf("row %d (below=%v), decision %d: list picked column %d, rescan picks %d", r, below, a.picks+a.deadEnd, col, want)
		}
		if col < 0 {
			a.deadEnd++
		} else {
			a.picks++
		}
		if r == a.lastRow {
			a.afterFlip++
		}
		a.lastRow = r
	}
	return a
}

// endSolve tells the audit a solve has ended, so a next solve that starts on
// the same row number is not mistaken for a continuation.
func (a *pickAudit) endSolve() { a.lastRow = -1 }

// checkStats ties the audited sequence to the solver's counters: every
// decision with a column is a flip or a dual pivot, every one without is a
// dead end the certificate then ruled on.
func (a *pickAudit) checkStats(st Stats) {
	a.t.Helper()
	if a.picks != st.BoundFlips+st.DualPivots || a.deadEnd != st.CertAccepted+st.CertFailed {
		a.t.Fatalf("audited %d picks and %d dead ends, stats %+v", a.picks, a.deadEnd, st)
	}
}

// TestRatioListMatchesRescan drives the warm path through the differential
// oracle's stream — 2 000 seeded LPs × 10 bound fixes — and then through
// dive-like fix streams on verification-shaped big-M LPs, where a row takes
// dozens of flips before its pivot, auditing every decision.
func TestRatioListMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	var picks, afterFlip int
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(7)
		m := randomSensedLP(rng, n, 2+rng.Intn(6))
		orig := make([][2]float64, n)
		for v := range orig {
			orig[v][0], orig[v][1] = m.Bounds(v)
		}
		s := NewSolver(m)
		audit := auditPicks(t, s)
		for step := 0; step <= 10; step++ {
			if step > 0 {
				v := rng.Intn(n)
				switch rng.Intn(5) {
				case 0:
					m.SetBounds(v, orig[v][0], orig[v][1])
				case 1, 2:
					m.SetBounds(v, orig[v][0], orig[v][0])
				default:
					m.SetBounds(v, orig[v][1], orig[v][1])
				}
			}
			if _, err := s.Solve(Options{}); err != nil {
				t.Fatal(err)
			}
			audit.endSolve()
		}
		audit.checkStats(s.Stats())
		picks += audit.picks
		afterFlip += audit.afterFlip
	}
	if picks < 5000 || afterFlip < 500 {
		t.Fatalf("random stream too tame: %d decisions, %d after a flip", picks, afterFlip)
	}

	picks, afterFlip = 0, 0
	for trial := 0; trial < 4; trial++ {
		m, ind := bigMNetLP(rand.New(rand.NewSource(int64(100+trial))), 84, []int{8, 8}, 10)
		s := NewSolver(m)
		audit := auditPicks(t, s)
		for step := 0; step < 150; step++ {
			fixIndicator(m, ind, step)
			if _, err := s.Solve(Options{}); err != nil {
				t.Fatal(err)
			}
			audit.endSolve()
		}
		audit.checkStats(s.Stats())
		picks += audit.picks
		afterFlip += audit.afterFlip
	}
	if picks < 5000 || afterFlip < 2000 {
		t.Fatalf("big-M stream too tame: %d decisions, %d after a flip", picks, afterFlip)
	}
}

// bigMNetLP builds the LP relaxation of a random ReLU network's big-M
// encoding — the verification LPs' shape: boxed inputs, per unstable neuron
// a post-activation p, a relaxed indicator d ∈ [0,1] and three rows with
// interval-propagated big-Ms, affine outputs, and the first output
// maximized. With 84 inputs, two hidden layers of 8 and 10 outputs it is
// the I2x8 tableau: 58 rows, 184 priced columns. Returns the indicators.
func bigMNetLP(rng *rand.Rand, nIn int, hidden []int, nOut int) (*Model, []int) {
	m := NewModel()
	prev := make([]int, nIn)
	lo, hi := make([]float64, nIn), make([]float64, nIn)
	for i := range prev {
		lo[i], hi[i] = -rng.Float64(), rng.Float64()
		prev[i] = m.AddVariable(lo[i], hi[i], "")
	}
	var indicators []int
	// affine draws one neuron's weights and returns its terms, bias and
	// pre-activation interval over the previous layer's boxes.
	affine := func() (terms []Term, b, preLo, preHi float64) {
		b = rng.NormFloat64() * 0.1
		preLo, preHi = b, b
		for k, v := range prev {
			w := rng.NormFloat64() / math.Sqrt(float64(len(prev)))
			terms = append(terms, Term{v, w})
			if w > 0 {
				preLo, preHi = preLo+w*lo[k], preHi+w*hi[k]
			} else {
				preLo, preHi = preLo+w*hi[k], preHi+w*lo[k]
			}
		}
		return terms, b, preLo, preHi
	}
	for _, width := range hidden {
		next := make([]int, width)
		nLo, nHi := make([]float64, width), make([]float64, width)
		for j := range next {
			terms, b, preLo, preHi := affine()
			switch {
			case preHi <= 0:
				next[j] = m.AddVariable(0, 0, "")
			case preLo >= 0:
				next[j] = m.AddVariable(preLo, preHi, "")
				nLo[j], nHi[j] = preLo, preHi
				m.AddConstraint(append(terms, Term{next[j], -1}), EQ, -b, "")
			default:
				p := m.AddVariable(0, preHi, "")
				d := m.AddVariable(0, 1, "")
				next[j], nHi[j] = p, preHi
				indicators = append(indicators, d)
				m.AddConstraint(append(terms, Term{p, -1}), LE, -b, "")
				m.AddConstraint(append(terms, Term{p, -1}, Term{d, preLo}), GE, -b+preLo, "")
				m.AddConstraint([]Term{{p, 1}, {d, -preHi}}, LE, 0, "")
			}
		}
		prev, lo, hi = next, nLo, nHi
	}
	for j := 0; j < nOut; j++ {
		terms, b, preLo, preHi := affine()
		y := m.AddVariable(preLo, preHi, "")
		m.AddConstraint(append(terms, Term{y, -1}), EQ, -b, "")
		if j == 0 {
			m.SetObjective(y, 1)
		}
	}
	m.SetMaximize(true)
	return m, indicators
}

// fixIndicator applies step i of a dive-like stream: walk the indicators
// round after round, fixing each to 0, then to 1, then releasing it, so
// consecutive LPs differ by one bound fix and the box keeps tightening and
// loosening the way a branch-and-bound worker's does.
func fixIndicator(m *Model, ind []int, i int) {
	v := ind[(i*7)%len(ind)]
	switch (i / len(ind)) % 3 {
	case 0:
		m.SetBounds(v, 0, 0)
	case 1:
		m.SetBounds(v, 1, 1)
	default:
		m.SetBounds(v, 0, 1)
	}
}

// BenchmarkNodeResolve is one branch-and-bound node: a warm re-solve, one
// indicator fix away from the last, on an I2x8-shaped big-M LP.
func BenchmarkNodeResolve(b *testing.B) {
	m, ind := bigMNetLP(rand.New(rand.NewSource(100)), 84, []int{8, 8}, 10)
	s := NewSolver(m)
	if _, err := s.Solve(Options{}); err != nil {
		b.Fatal(err)
	}
	start := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixIndicator(m, ind, i)
		if _, err := s.Solve(Options{}); err != nil {
			b.Fatal(err)
		}
	}
	st := s.Stats()
	b.ReportMetric(float64(st.DualPivots+st.PrimalPivots-start.DualPivots-start.PrimalPivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(st.BoundFlips-start.BoundFlips)/float64(b.N), "flips/op")
}
