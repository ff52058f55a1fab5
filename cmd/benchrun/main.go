// Command benchrun regenerates and gates the committed benchmark
// ladders: BENCH_infer.json (the inference plane — see DESIGN.md
// "Kernel layer") and BENCH_verify.json (the verification path: update
// kernels → LP re-solves → Table II searches — see DESIGN.md
// "internal/lp").
// -suite selects which (default "infer").
//
// Regenerate a ladder — numbers are machine-dependent, so the commit
// and date are recorded alongside them and must be passed in (benchrun
// never reads the wall clock or shells out to git):
//
//	go run ./cmd/benchrun -commit $(git rev-parse --short HEAD) \
//	  -date 2026-08-08 -out BENCH_infer.json
//	go run ./cmd/benchrun -suite verify -commit $(git rev-parse --short HEAD) \
//	  -date 2026-09-27 -count 3 -out BENCH_verify.json
//
// Gate a change against the committed ladder — re-runs the same
// benchmarks and fails if any hot-path benchmark regresses by more than
// -tolerance in ns/op, if a benchmark the baseline records as
// allocation-free allocates, or if a whole search explores a different
// number of nodes or pivots than recorded. Effort at one worker (a
// "workers1" row) is a function of the code, not of the machine, and is
// gated everywhere; effort at GOMAXPROCS workers is a function of the
// code and the worker count, and is gated when the machine's GOMAXPROCS
// is the ladder's:
//
//	go run ./cmd/benchrun -against BENCH_infer.json \
//	  -benchtime 1000x -count 5
//	go run ./cmd/benchrun -suite verify -against BENCH_verify.json -count 3
//
// Each benchmark's best (minimum) ns/op across -count runs is compared,
// which filters scheduler noise; allocs/op uses the maximum so a single
// allocating run fails the zero-alloc gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type suite struct {
	pkg   string
	bench string
	// benchtime, when set, replaces -benchtime for this package: rows that
	// are whole branch-and-bound searches run a handful of times, not the
	// thousand a kernel needs.
	benchtime string
}

// suiteSets are the benchmark ladders, keyed by -suite. "infer" walks
// kernels alone, packed forwards, then the end-to-end HTTP plane —
// together they localise a regression (a slow /v1/infer with a fast
// MatVec is protocol overhead, not kernels). "verify" walks the
// verification path bottom-up the same way: the two update kernels a
// simplex pivot is made of, one LP re-solve (warm, cold, and a branch-
// and-bound node on an I2x8-shaped tableau), then whole Table II
// searches with their node and pivot counts.
var suiteSets = map[string]struct {
	schema string
	suites []suite
}{
	"infer": {"bench-infer/v1", []suite{
		{pkg: "./internal/linalg/", bench: "BenchmarkMatVec|BenchmarkMatVecDot|BenchmarkMatMulTB"},
		{pkg: "./internal/nn/", bench: "BenchmarkForwardBatchInto|BenchmarkForward$"},
		{pkg: "./internal/obs/", bench: "BenchmarkObserve"},
		{pkg: "./pkg/vnnserver/", bench: "BenchmarkInferHTTP"},
	}},
	"verify": {"bench-verify/v1", []suite{
		{pkg: "./internal/linalg/", bench: "BenchmarkAxpy|BenchmarkScale"},
		{pkg: "./internal/lp/", bench: "BenchmarkWarmResolve|BenchmarkColdResolve|BenchmarkNodeResolve"},
		{pkg: ".", bench: "BenchmarkTable2$/^(I2x8|I3x8)$|BenchmarkEngineWorkers", benchtime: "3x"},
	}},
}

// Result is one benchmark's recorded numbers.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// InputsPerS is the custom throughput metric the HTTP benchmarks
	// report; zero for benchmarks that do not emit it.
	InputsPerS float64 `json:"inputs_per_s,omitempty"`
	// BBNodes / LPPivots are the search-effort counters of the verify
	// suite's whole-solve rows: branch-and-bound nodes and simplex pivots
	// of one solve. Deterministic per worker count; zero elsewhere.
	BBNodes  int64 `json:"bb_nodes,omitempty"`
	LPPivots int64 `json:"lp_pivots,omitempty"`
}

// File is the BENCH_infer.json document.
type File struct {
	Schema     string   `json:"schema"`
	Commit     string   `json:"commit"`
	Date       string   `json:"date"`
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchtime  string   `json:"benchtime"`
	Count      int      `json:"count"`
	Benchmarks []Result `json:"benchmarks"`
	// Baseline preserves the pre-kernel numbers this ladder is measured
	// against (PR 5's legacy Dot-order serving path), so the speedup
	// claims in DESIGN.md stay auditable from the repo alone.
	Baseline []Result `json:"baseline,omitempty"`
}

func main() {
	var (
		commit    = flag.String("commit", "", "commit hash to record (required with -out)")
		date      = flag.String("date", "", "ISO date to record (required with -out; benchrun never reads the clock)")
		out       = flag.String("out", "", "write a fresh BENCH_infer.json here")
		against   = flag.String("against", "", "gate mode: compare a fresh run against this committed ladder")
		benchtime = flag.String("benchtime", "1000x", "go test -benchtime per run")
		count     = flag.Int("count", 5, "go test -count (best-of filters noise)")
		tolerance = flag.Float64("tolerance", 0.15, "gate mode: allowed fractional ns/op regression")
		keepBase  = flag.Bool("keep-baseline", true, "with -out and -against absent: copy the baseline block from an existing output file")
		suiteName = flag.String("suite", "infer", "benchmark ladder to run: infer or verify")
	)
	flag.Parse()

	set, ok := suiteSets[*suiteName]
	if !ok {
		fatal("unknown suite %q (want infer or verify)", *suiteName)
	}

	if (*out == "") == (*against == "") {
		fatal("exactly one of -out or -against is required")
	}
	if *out != "" && (*commit == "" || *date == "") {
		fatal("-out requires -commit and -date (benchrun records provenance, it does not invent it)")
	}

	results, err := runSuites(set.suites, *benchtime, *count)
	if err != nil {
		fatal("%v", err)
	}

	if *against != "" {
		gate(*against, results, *tolerance)
		return
	}

	f := File{
		Schema:     set.schema,
		Commit:     *commit,
		Date:       *date,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  *benchtime,
		Count:      *count,
		Benchmarks: results,
	}
	if *keepBase {
		if old, err := load(*out); err == nil {
			f.Baseline = old.Baseline
		}
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(results))
}

// referenceBench marks the legacy-order comparison benchmarks. They are
// recorded in the ladder (they are the "before" of the speedup story)
// but not gated: a slow reference path is not a serving regression.
var referenceBench = regexp.MustCompile(`^(BenchmarkForward$|BenchmarkMatVecDot(/|$))`)

// sequentialBench marks the one-worker searches, whose node and pivot
// counts do not depend on the machine and are gated exactly. The other
// whole-solve rows run on GOMAXPROCS workers: their counts are
// deterministic per worker count, so they are gated exactly only on a
// machine with the ladder's GOMAXPROCS.
var sequentialBench = regexp.MustCompile(`/workers1$`)

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkInferHTTP-4  1000  622470 ns/op  102831 inputs/s  65536 B/op  1107 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

func runSuites(suites []suite, benchtime string, count int) ([]Result, error) {
	best := map[string]*Result{}
	var order []string
	for _, s := range suites {
		bt := benchtime
		if s.benchtime != "" {
			bt = s.benchtime
		}
		args := []string{"test", "-run=NONE", "-bench=" + s.bench, "-benchmem",
			"-benchtime=" + bt, "-count=" + strconv.Itoa(count), s.pkg}
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		outBuf, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
		}
		for _, line := range strings.Split(string(outBuf), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			name := m[1]
			ns, _ := strconv.ParseFloat(m[2], 64)
			allocs := int64(-1)
			inputs := 0.0
			var nodes, pivots int64
			for _, f := range regexp.MustCompile(`([\d.]+) (\S+)`).FindAllStringSubmatch(m[3], -1) {
				switch f[2] {
				case "allocs/op":
					allocs, _ = strconv.ParseInt(f[1], 10, 64)
				case "inputs/s":
					inputs, _ = strconv.ParseFloat(f[1], 64)
				case "bbNodes":
					nodes = parseCount(f[1])
				case "lpPivots":
					pivots = parseCount(f[1])
				}
			}
			r, ok := best[name]
			if !ok {
				best[name] = &Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs,
					InputsPerS: inputs, BBNodes: nodes, LPPivots: pivots}
				order = append(order, name)
				continue
			}
			if ns < r.NsPerOp {
				r.NsPerOp = ns
			}
			if allocs > r.AllocsPerOp {
				r.AllocsPerOp = allocs
			}
			if inputs > r.InputsPerS {
				r.InputsPerS = inputs
			}
			// The effort counters are a determinism check, not a race: a run
			// that disagrees with the one before it is not a measurement, it
			// is a bug.
			if nodes != r.BBNodes || pivots != r.LPPivots {
				return nil, fmt.Errorf("%s: effort differs between runs: %d nodes / %d pivots, then %d / %d",
					name, r.BBNodes, r.LPPivots, nodes, pivots)
			}
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed")
	}
	sort.Strings(order)
	results := make([]Result, 0, len(order))
	for _, name := range order {
		results = append(results, *best[name])
	}
	return results, nil
}

// parseCount reads a count a benchmark reported through ReportMetric,
// which prints a small one with a fraction ("394.0 bbNodes").
func parseCount(s string) int64 {
	v, _ := strconv.ParseFloat(s, 64)
	return int64(v)
}

func gate(path string, fresh []Result, tol float64) {
	base, err := load(path)
	if err != nil {
		fatal("%v", err)
	}
	got := map[string]Result{}
	for _, r := range fresh {
		got[r.Name] = r
	}
	failed := false
	for _, b := range base.Benchmarks {
		f, ok := got[b.Name]
		if !ok {
			fmt.Printf("FAIL %-28s missing from fresh run\n", b.Name)
			failed = true
			continue
		}
		ratio := f.NsPerOp / b.NsPerOp
		status := "ok  "
		// Sub-microsecond kernels see proportionally large timer noise;
		// the flat 100ns slack keeps the gate meaningful for them
		// without loosening the big benchmarks.
		switch {
		case referenceBench.MatchString(b.Name):
			status = "ref "
		case f.NsPerOp > b.NsPerOp*(1+tol)+100:
			status = "FAIL"
			failed = true
		}
		if b.AllocsPerOp == 0 && f.AllocsPerOp > 0 {
			fmt.Printf("FAIL %-28s allocates (%d allocs/op, baseline 0)\n", b.Name, f.AllocsPerOp)
			failed = true
		}
		sameWorkers := sequentialBench.MatchString(b.Name) || base.GOMAXPROCS == runtime.GOMAXPROCS(0)
		if sameWorkers && (f.BBNodes != b.BBNodes || f.LPPivots != b.LPPivots) {
			fmt.Printf("FAIL %-28s searched %d nodes / %d pivots, baseline %d / %d\n",
				b.Name, f.BBNodes, f.LPPivots, b.BBNodes, b.LPPivots)
			failed = true
		}
		fmt.Printf("%s %-28s %12.1f ns/op  baseline %12.1f  (%.2fx)\n",
			status, b.Name, f.NsPerOp, b.NsPerOp, ratio)
	}
	if failed {
		fatal("benchmark gate failed (tolerance %.0f%%)", tol*100)
	}
	fmt.Println("benchmark gate passed")
}

func load(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchrun: "+format+"\n", args...)
	os.Exit(1)
}
