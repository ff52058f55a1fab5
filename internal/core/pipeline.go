package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/highway"
	"repro/internal/train"
	"repro/pkg/vnn"
)

// PipelineConfig configures a full certification run.
type PipelineConfig struct {
	// Depth and Width give the I<Depth>×<Width> architecture.
	Depth, Width int
	// Components is the gmm head size; 0 means vnn.DefaultComponents.
	Components int
	// Seed drives data generation, initialization and training.
	Seed int64
	// Dataset controls synthetic data generation; zero value uses defaults.
	Dataset highway.DatasetConfig
	// Epochs of training; 0 means 30.
	Epochs int
	// Hints enables property-penalty training (future work iii).
	Hints bool
	// HintThreshold is the lateral velocity the penalty activates at
	// (m/s); 0 means 0.2.
	HintThreshold float64
	// SafetyThreshold is the verified bound (m/s); 0 means 3.0 (Table II).
	SafetyThreshold float64
	// Verify controls the formal verification step.
	Verify vnn.Options
	// VerifyTimeout bounds the verification step's wall clock (compilation
	// included); 0 means the pipeline's context alone governs it.
	VerifyTimeout time.Duration
	// SkipVerify omits the formal MILP queries (for quick smoke runs).
	// The network is still compiled once — bound propagation plus the
	// MILP encoding, cheap relative to any search — because traceability
	// and coverage read the compiled artifact; only the branch-and-bound
	// verification work is skipped.
	SkipVerify bool
}

// PipelineResult is the certification dossier: one artifact per Table I
// row, each produced by a public vnn.Analysis running against one
// compiled network (see Findings).
type PipelineResult struct {
	Arch string

	// Specification validity (Sec. II C).
	DataReport  *vnn.DataReport
	DataRemoved int
	Samples     int

	// Training.
	FinalLoss float64
	ValLoss   float64

	// Implementation understandability (Sec. II A).
	Traceability *vnn.TraceabilityReport

	// Implementation correctness: testing view (Sec. II B, negative result).
	Coverage          *vnn.CoverageSuite
	BranchCount       string // 2^n as a decimal string
	RequiredMCDCTests int

	// Implementation correctness: testing view, falsification attempt —
	// the best unsafe lateral velocity PGD attacks could reach (a lower
	// bound on MaxLatVel; the gap between them is what only formal
	// analysis can close).
	AttackLatVel float64

	// Operation-time dependability: the runtime activation-pattern
	// monitor built from the training data against the compiled bounds,
	// audited with coverage-generated region inputs.
	Monitor *vnn.MonitorFinding

	// Implementation correctness: formal view (Sec. II B, positive result).
	MaxLatVel   *vnn.Result
	ProveResult vnn.Outcome
	Threshold   float64

	// Findings are the raw analysis results the dossier was assembled
	// from, in execution order — feed them to vnn.NewAnalysisReport for
	// the machine-readable document the vnnd service also speaks.
	Findings []*vnn.Finding

	Predictor *Predictor
	Elapsed   time.Duration
}

// Certified reports whether the dossier supports certification: valid data,
// and a proven safety bound.
func (r *PipelineResult) Certified() bool {
	if r.DataReport == nil || !r.DataReport.Valid() && r.DataRemoved == 0 {
		return false
	}
	return r.ProveResult == vnn.Proved
}

// String renders the dossier.
func (r *PipelineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "certification dossier: %s\n", r.Arch)
	fmt.Fprintf(&b, "  data: %d samples, %d violations, %d removed\n", r.Samples, len(r.DataReport.Violations), r.DataRemoved)
	fmt.Fprintf(&b, "  training: final loss %.4f (val %.4f)\n", r.FinalLoss, r.ValLoss)
	fmt.Fprintf(&b, "  traceability: %d neurons analyzed, %d dead\n", len(r.Traceability.Neurons), len(r.Traceability.DeadNeurons()))
	fmt.Fprintf(&b, "  testing: %s; exhaustive branches=%s, MC/DC lower bound=%d tests\n", r.Coverage, r.BranchCount, r.RequiredMCDCTests)
	if r.Monitor != nil {
		fmt.Fprintf(&b, "  runtime monitor: %d patterns from %d inputs (%d rejected as unreachable), audit flagged %d/%d (%.1f%%)\n",
			r.Monitor.Patterns, r.Monitor.BuildInputs, r.Monitor.RejectedUnreachable,
			r.Monitor.Flagged, r.Monitor.Audited, 100*r.Monitor.FlaggedFraction)
	}
	if r.MaxLatVel != nil {
		fmt.Fprintf(&b, "  falsification: best attack reached %.4f m/s\n", r.AttackLatVel)
		fmt.Fprintf(&b, "  verification: max lateral velocity %.4f m/s (exact=%v, %.1fs)\n",
			r.MaxLatVel.Value, r.MaxLatVel.Exact, r.MaxLatVel.Stats.Elapsed.Seconds())
		fmt.Fprintf(&b, "  safety bound %.1f m/s: %v\n", r.Threshold, r.ProveResult)
	}
	fmt.Fprintf(&b, "  certified: %v\n", r.Certified())
	return b.String()
}

// RunPipeline executes the full certification methodology on a freshly
// generated dataset and a freshly trained predictor. The context governs
// the whole run; its cancellation reaches into the verification step's
// simplex iterations, and an interrupted verification still contributes
// its anytime bounds to the dossier.
func RunPipeline(ctx context.Context, cfg PipelineConfig) (*PipelineResult, error) {
	start := time.Now()
	if cfg.Components == 0 {
		cfg.Components = vnn.DefaultComponents
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 30
	}
	if cfg.HintThreshold == 0 {
		cfg.HintThreshold = 0.2
	}
	if cfg.SafetyThreshold == 0 {
		cfg.SafetyThreshold = 3.0
	}
	if cfg.Dataset.Episodes == 0 {
		cfg.Dataset = highway.DefaultDatasetConfig()
	}
	cfg.Dataset.Sim.Seed = cfg.Seed

	// 1. Specification: generate and validate data (Table I, row 3).
	data, err := highway.GenerateDataset(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("core: dataset: %w", err)
	}
	rules := SafetyRules(1e-9)
	report := vnn.ValidateData(data, rules)
	clean, removed := vnn.SanitizeData(data, rules)
	if len(clean) == 0 {
		return nil, fmt.Errorf("core: no samples survived validation")
	}

	res := &PipelineResult{
		DataReport:  report,
		DataRemoved: removed,
		Samples:     len(clean),
		Threshold:   cfg.SafetyThreshold,
	}

	// 2. Train the predictor.
	pred := NewPredictorNet(cfg.Depth, cfg.Width, cfg.Components, cfg.Seed)
	res.Arch = pred.Net.ArchString()
	res.Predictor = pred
	trainSet, valSet := train.Split(clean, 0.15, rand.New(rand.NewSource(cfg.Seed+1)))
	trainer := &train.Trainer{
		Net:       pred.Net,
		Loss:      train.MDN{K: cfg.Components},
		Opt:       train.NewAdam(0.003),
		BatchSize: 64,
		Rng:       rand.New(rand.NewSource(cfg.Seed + 2)),
		ClipNorm:  20,
	}
	curve := trainer.Fit(trainSet, cfg.Epochs)
	if cfg.Hints {
		// Future-work item (iii): fine-tune the trained network under the
		// known property — penalty loss, property-derived samples, and
		// counterexample-guided rounds (see vnn.HintFineTune).
		if err := vnn.HintFineTune(pred, trainSet, vnn.HintConfig{
			Threshold: cfg.HintThreshold,
			Seed:      cfg.Seed + 3,
		}); err != nil {
			return nil, fmt.Errorf("core: hints: %w", err)
		}
	}
	res.FinalLoss = curve[len(curve)-1]
	if len(valSet) > 0 {
		res.ValLoss = trainer.MeanLoss(valSet)
	}

	// 3–6. The rest of the dossier runs through the public dependability
	// API: the network is compiled against the property region exactly
	// once, then traceability (Table I, row 1 — interval conditions read
	// the compiled bounds), coverage (row 2−), the falsification pre-pass,
	// and the formal queries (row 2+) all execute as vnn analyses over
	// that one shared artifact. As before the redesign, the VerifyTimeout
	// budget covers the compile plus the formal batch only: the compile
	// deadline is taken now, and the formal batch below receives whatever
	// the compile left over — the analyses in between run outside the
	// budget and cannot starve the proof.
	compileStart := time.Now()
	cctx := ctx
	if cfg.VerifyTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, cfg.VerifyTimeout)
		defer cancel()
	}
	cn, err := vnn.Compile(cctx, pred.Net, vnn.LeftOccupiedRegion(), cfg.Verify)
	if err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	compileElapsed := time.Since(compileStart)
	inputs := make([][]float64, 0, 512)
	for i := 0; i < len(clean) && i < 512; i++ {
		inputs = append(inputs, clean[i].X)
	}
	findings, err := vnn.Analyze(ctx, cn,
		&vnn.Traceability{Data: inputs, FeatureNames: highway.FeatureNames()},
		&vnn.Coverage{Data: inputs},
		&vnn.Falsification{Outputs: pred.MuLatOutputs(), Restarts: 6, Steps: 40, Seed: cfg.Seed + 4},
		&vnn.MonitorAudit{Data: inputs, AuditTests: 400, Seed: cfg.Seed + 5},
	)
	if err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	res.Findings = findings
	res.Traceability = findings[0].Traceability
	cov := findings[1].Coverage
	res.Coverage = cov.Suite
	res.BranchCount = cov.BranchCombinations
	res.RequiredMCDCTests = cov.RequiredMCDCTests
	res.AttackLatVel = findings[2].Falsification.Value
	res.Monitor = findings[3].Monitor

	if !cfg.SkipVerify {
		vctx := ctx
		if cfg.VerifyTimeout > 0 {
			remaining := cfg.VerifyTimeout - compileElapsed
			if remaining <= 0 {
				remaining = time.Nanosecond // budget spent: formal queries answer with anytime bounds
			}
			var cancel context.CancelFunc
			vctx, cancel = context.WithTimeout(ctx, remaining)
			defer cancel()
		}
		props := []vnn.Property{vnn.MaxOverOutputs(pred.MuLatOutputs()...)}
		for _, out := range pred.MuLatOutputs() {
			props = append(props, vnn.AtMost(out, cfg.SafetyThreshold))
		}
		formal, err := vnn.AnalyzeOne(vctx, cn, &vnn.Verification{Properties: props})
		if err != nil {
			return nil, fmt.Errorf("core: verify: %w", err)
		}
		res.Findings = append(res.Findings, formal)
		res.MaxLatVel = formal.Verification[0]
		res.ProveResult = vnn.Worst(formal.Verification[1:])
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
