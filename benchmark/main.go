// Command benchmark is the end-to-end benchmark of vnnd: it boots the
// daemon as a child process, drives it over HTTP with one of four seeded
// workloads, checks every reply against an independent oracle, and prints
// every metric by name and unit. README.md in this directory says why the
// workloads and metrics are what they are; BENCHMARK.json at the root of
// the repository lists them with their regression bounds.
//
//	bash benchmark/run.sh --workload table2_cold --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --repeat 10 --out a.json
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. Its JSON form is the contract's
// result line; the unexported fields feed the human-readable table.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	notes    map[string]string // metric name -> sample count or definition
	firstErr error
	// effort is nodes and pivots of the workload's first requests, one
	// entry per request: deterministic, so two runs must agree on it.
	effort   map[int][2]float64
	rawSpeed float64
}

func (r *result) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// runConfig is what one run needs to know.
type runConfig struct {
	vnnd    string  // path of the vnnd binary
	seed    int64   // generates every request
	seconds float64 // length of the timed window
	traced  bool    // report per-layer metrics in place of end-to-end ones
	// maxOps bounds the operations of a window; only the smoke test sets
	// it, to keep the verify workloads short and their counts fixed.
	maxOps int
	// setups is how many times set-up is performed; setup_s is the median.
	setups int
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
		seed     = flag.Int64("seed", 1, "seed of the generated requests")
		seconds  = flag.Float64("seconds", 20, "length of the timed window")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics (scrapes, in-process replay, span files) in place of end-to-end ones")
		repeat   = flag.Int("repeat", 1, "run this many sets, on seeds seed, seed+1, ..., and print median, quartiles and spread per metric")
		out      = flag.String("out", "", "with -repeat: store the sets in this file for -compare")
		compare  = flag.Bool("compare", false, "compare two stored sets (two file arguments) against the bounds in BENCHMARK.json")
		vnnd     = flag.String("vnnd", ".bench_build/vnnd", "path of the vnnd binary under test (run.sh builds it)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two set files"))
		}
		ok, err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	printEnvironment()
	sets := setFile{}
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		for _, name := range names {
			cfg := runConfig{vnnd: *vnnd, seed: *seed + int64(rep), seconds: *seconds, traced: *trace == 1, setups: 5}
			res, err := runWorkload(cfg, name)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			res.print(os.Stdout)
			failed = failed || !res.Correct
			sets.add(name, res)
		}
	}
	if *repeat > 1 {
		sets.printSpread(os.Stdout)
		if *out != "" {
			if err := sets.write(*out); err != nil {
				fatal(err)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printEnvironment records what the numbers were measured on.
func printEnvironment() {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Fields(string(data))[0]
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s cpu=%q load1=%s generator_connections<=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model, load, runtime.NumCPU())
}

// print writes the human-readable table and, last, the result line.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "## %s: attempted %d, failed %d\n", r.workload, r.Attempted, r.Failed)
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.4f %-6s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// loadGolden reads the table2_cold values pinned for a seed, at six
// decimals; most seeds have none.
func loadGolden(seed int64) ([]string, error) {
	path := filepath.Join("benchmark", "golden", fmt.Sprintf("seed%d.json", seed))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g struct {
		Table2Cold []string `json:"table2_cold"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g.Table2Cold, nil
}
