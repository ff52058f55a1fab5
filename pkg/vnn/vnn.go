// Package vnn is the public verification API of this repository: one
// surface through which every analysis of the paper's portfolio — formal
// output bounds, threshold proofs, resilience radii, falsification — runs
// against a trained network.
//
// The API separates the expensive, reusable part of a verification from
// the cheap, per-question part:
//
//   - Compile fixes a network to an input region and performs interval
//     bound propagation, optional LP bound tightening, and the MILP
//     encoding exactly once. The resulting CompiledNetwork is immutable
//     and safe for concurrent reuse: every query works on a clone of the
//     compiled model, never on the shared encoding itself.
//
//   - A small Property algebra states what to check: MaxOutput /
//     MaxOverOutputs / MinOutput objectives, AtMost threshold proofs,
//     general linear output inequalities (LinearAtMost), and
//     ResilienceRadius searches. Properties are plain values; build them
//     anywhere and batch them freely.
//
//   - Verify runs a batch of properties over one CompiledNetwork under a
//     context.Context. The context's deadline and cancellation are
//     threaded all the way down into the branch-and-bound batch loop and
//     the simplex pivot iterations, so Verify returns promptly when the
//     caller gives up — and the Result it returns is an *anytime* answer:
//     an interrupted query still reports the incumbent value and the
//     tightest proven bound at the moment of interruption, never a bare
//     "timeout".
//
// Progress while a query runs is streamed through Options.Progress as
// incumbent/bound/node events, tagged with the index of the property that
// produced them.
//
// A typical session:
//
//	cn, err := vnn.Compile(ctx, net, vnn.LeftOccupiedRegion(), vnn.Options{Tighten: true})
//	results, err := vnn.Verify(ctx, cn,
//	    vnn.MaxOverOutputs(vnn.MuLatOutputs(k)...),
//	    vnn.AtMost(vnn.MuLatOutputs(k)[0], 3.0))
//
// Compiling once and asking many questions is the intended idiom; each
// compile reports its own passes (CompiledNetwork.CompilePhases) and each
// result its own solves (Stats.Solves).
package vnn

import (
	"context"
	"time"

	"repro/internal/bounds"
	"repro/internal/milp"
	"repro/internal/nn"
	"repro/internal/verify"
)

// Re-exported core types, so callers state regions and read results
// without importing internal packages.
type (
	// Network is a feed-forward ReLU network (see internal/nn).
	Network = nn.Network
	// ForwardScratch is the caller-owned state of the allocation-free
	// serving forward (Network.ForwardBatchInto; a single input is a batch
	// of one). Buffers only: the zero value is ready, one per goroutine.
	ForwardScratch = nn.Scratch
	// Interval is a closed [Lo, Hi] range.
	Interval = bounds.Interval
	// Region is the input set a property quantifies over: a box
	// intersected with optional linear constraints.
	Region = verify.InputRegion
	// LinearConstraint is one linear inequality over network inputs.
	LinearConstraint = verify.LinearConstraint
	// Stats describes the effort a query took.
	Stats = verify.Stats
)

// Options tune compilation and the queries run against the compiled
// network. The zero value is a sound default: no tightening, all cores.
type Options struct {
	// Tighten enables LP-based bound tightening during Compile (slower
	// preprocessing, smaller search trees for every later query).
	Tighten bool
	// Workers is the only concurrency option: the branch-and-bound worker
	// count per MILP solve, and nothing else — Compile never reads it.
	// 0 means GOMAXPROCS, 1 the sequential engine. A property's MILPs (one
	// per output for MaxOverOutputs) are solved one after another. Results
	// are deterministic for any fixed value.
	Workers int
	// MaxNodes bounds branch-and-bound nodes per MILP; 0 means unlimited.
	MaxNodes int
	// Progress, when non-nil, receives streamed incumbent/bound/node
	// events from running queries, one at a time on the goroutine running
	// the query (its solves run one after another). The callback must not
	// block; it may trigger the context's cancel function to stop a search
	// early.
	Progress func(Event)
}

// Event is a progress snapshot from a running query: the branch-and-bound
// incumbent, the proven bound, and node counts, tagged with the index of
// the property (within the Verify batch) that produced it.
type Event struct {
	// Property is the index into the Verify props list this event belongs
	// to (0 for single-property calls).
	Property int
	// Analysis is the index into the Analyze batch of the analysis that
	// produced this event (0 for plain Verify calls).
	Analysis int
	// Nodes explored and Open nodes on the queue of the emitting solve.
	Nodes, Open int
	// HasIncumbent reports whether any feasible witness exists yet.
	HasIncumbent bool
	// Incumbent is the best witness objective so far (valid when
	// HasIncumbent); Bound is the proven bound on the optimum.
	Incumbent, Bound float64
	// Elapsed is wall-clock time since the emitting solve started.
	Elapsed time.Duration
}

// CompiledNetwork is a network fixed to one input region with all
// preprocessing — bound propagation, optional LP tightening, MILP
// encoding — done once. It is immutable and safe for concurrent use:
// queries clone the compiled model instead of mutating it. Build one with
// Compile, then answer any number of property queries with Verify.
type CompiledNetwork struct {
	c    *verify.Compiled
	opts Options
}

// Compile performs the one-time analysis of net over region. The context
// bounds the whole compilation including LP tightening (a deadline that
// fires mid-tightening stops it early and soundly, so preprocessing can
// no longer consume the entire verification budget). Of opts only Tighten
// shapes the artifact, so it is a function of Fingerprint(net, region,
// opts); the rest applies to the queries run on it.
func Compile(ctx context.Context, net *Network, region *Region, opts Options) (*CompiledNetwork, error) {
	c, err := verify.Compile(ctx, net, region, opts.Tighten)
	if err != nil {
		return nil, err
	}
	return &CompiledNetwork{c: c, opts: opts}, nil
}

// Net returns the compiled network.
func (cn *CompiledNetwork) Net() *Network { return cn.c.Net() }

// Region returns the input region the compilation quantifies over.
func (cn *CompiledNetwork) Region() *Region { return cn.c.Region() }

// OutputBounds returns the proven interval bounds on every output over the
// region — the zero-cost anytime answer available before any MILP runs.
func (cn *CompiledNetwork) OutputBounds() []Interval { return cn.c.OutputBounds() }

// PreActivationBounds returns the proven pre-activation intervals of every
// hidden layer (one row per hidden layer) computed during compilation —
// LP-tightened when the network was compiled with Options.Tighten. The
// rows are read-only views into the compiled state; analyses (e.g.
// traceability interval conditions) consume them instead of re-running
// bound propagation.
func (cn *CompiledNetwork) PreActivationBounds() [][]Interval { return cn.c.PreActivationBounds() }

// CompileTime reports the wall-clock cost of the one-time analysis.
func (cn *CompiledNetwork) CompileTime() time.Duration { return cn.c.CompileTime }

// CompilePhases is one compilation's own tighten/encode durations and
// pass counts.
type CompilePhases = verify.Phases

// CompilePhases splits CompileTime by phase; zero for an imported
// artifact (UnmarshalCompiled), which was never compiled here.
func (cn *CompiledNetwork) CompilePhases() CompilePhases { return cn.c.Phases }

// WithOptions returns a view of the compiled network whose queries run
// under opts. The expensive compiled state is shared, not copied —
// compile-time effects of the original options (tightened bounds) are
// whatever Compile produced — so one cached compilation can serve callers
// that want different worker budgets or progress sinks. This is how the
// verification service attaches per-request options to a cache hit.
func (cn *CompiledNetwork) WithOptions(opts Options) *CompiledNetwork {
	return &CompiledNetwork{c: cn.c, opts: opts}
}

// verifyOptions maps the public options onto the internal engine's,
// wiring the progress stream to a property index. A property's MILPs run
// one after another, each reporting from its coordinating goroutine, so
// the public callback never sees overlapping invocations.
func verifyOptions(o Options, propIndex int) verify.Options {
	vo := verify.Options{
		Workers:  o.Workers,
		MaxNodes: o.MaxNodes,
	}
	if o.Progress != nil {
		p := o.Progress
		vo.Progress = func(ev milp.Event) {
			p(Event{
				Property:     propIndex,
				Nodes:        ev.Nodes,
				Open:         ev.Open,
				HasIncumbent: ev.HasIncumbent,
				Incumbent:    ev.Incumbent,
				Bound:        ev.Bound,
				Elapsed:      ev.Elapsed,
			})
		}
	}
	return vo
}
