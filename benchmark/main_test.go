package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var vnndUnderTest string

// TestMain builds vnnd once and moves to the root of the checkout, which
// is where the harness expects to run (it addresses benchmark/out,
// benchmark/golden and BENCHMARK.json from there).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	vnndUnderTest = filepath.Join(".bench_build", "vnnd-test")
	build := exec.Command("go", "build", "-o", filepath.Join("..", vnndUnderTest), "repro/cmd/vnnd")
	build.Dir = "benchmark"
	if out, err := build.CombinedOutput(); err != nil {
		panic("build vnnd: " + err.Error() + "\n" + string(out))
	}
	os.Exit(m.Run())
}

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload briefly, plain and traced, and holds the
// harness to BENCHMARK.json: the same workloads, every listed metric
// printed exactly once under a well-formed name and the listed unit, no
// failed operation, and solver effort that repeats exactly.
func TestSmoke(t *testing.T) {
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []namedMetric           `json:"end_to_end"`
		PerLayer  []namedMetric           `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range doc.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the harness has %v", listed, workloadNames)
	}
	// A handful of operations per window: 2 verdicts, 4 dossiers, and as
	// many 64-input batches as fit in a second.
	maxOps := map[string]int{"table2_cold": 2, "dossier_shared": 4}
	for _, name := range workloadNames {
		cfg := runConfig{vnnd: vnndUnderTest, seed: 1, seconds: 1, maxOps: maxOps[name], setups: 1}
		plain := runOnce(t, cfg, name, doc.EndToEnd)
		cfg.traced = true
		traced := runOnce(t, cfg, name, doc.PerLayer)
		// Both runs sent the workload's first requests: the search behind
		// each must have taken exactly the same nodes and pivots.
		for i, effort := range plain.effort {
			if traced.effort[i] != effort {
				t.Errorf("%s: request %d took %v nodes and pivots in one run, %v in the next", name, i, effort, traced.effort[i])
			}
		}
		if maxOps[name] > 0 && len(plain.effort) == 0 {
			t.Errorf("%s: no solver effort recorded", name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func runOnce(t *testing.T, cfg runConfig, name string, want []namedMetric) *result {
	t.Helper()
	res, err := runWorkload(cfg, name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct {
		t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.firstErr)
	}
	var out bytes.Buffer
	res.print(&out)
	lines := strings.Split(out.String(), "\n")
	for _, m := range want {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		printed := 0
		for _, line := range lines {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == m.Name {
				printed++
				if f[2] != m.Unit {
					t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", name, m.Name, f[2], m.Unit)
				}
			}
		}
		if printed != 1 {
			t.Errorf("%s (traced=%v): metric %s printed %d times, want once", name, cfg.traced, m.Name, printed)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s (traced=%v): %d metrics reported, BENCHMARK.json lists %d", name, cfg.traced, len(res.Metrics), len(want))
	}
	return res
}
