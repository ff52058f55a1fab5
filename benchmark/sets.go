package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// setFile holds the values of repeated runs: workload -> metric -> one
// value per run, in run order. -repeat writes one, -compare reads two.
type setFile map[string]map[string][]float64

func (s setFile) add(workload string, r *result) {
	if s[workload] == nil {
		s[workload] = map[string][]float64{}
	}
	for name, m := range r.Metrics {
		s[workload][name] = append(s[workload][name], m.Value)
	}
}

func (s setFile) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSet(path string) (setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printSpread prints median, quartiles and spread (interquartile distance
// as a share of the median) per metric and workload: the repeatability
// figure a bound has to be read against.
func (s setFile) printSpread(w io.Writer) {
	fmt.Fprintf(w, "\n%-16s %-34s %4s %14s %14s %14s %8s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread")
	for _, workload := range sortedKeys(s) {
		for _, name := range sortedKeys(s[workload]) {
			values := s[workload][name]
			if len(values) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(values)
			fmt.Fprintf(w, "%-16s %-34s %4d %14.4f %14.4f %14.4f %8.4f\n", workload, name, len(values), q1, q2, q3, ratio(q3-q1, q2))
		}
	}
}

// benchmarkDoc is the part of BENCHMARK.json -compare needs.
type benchmarkDoc struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounters must not differ at all between two sets of the same seeds:
// they count work, and work is deterministic.
var exactCounters = []string{"milp.nodes", "lp.pivots"}

// compareSets prints, for every bounded metric and workload, the medians
// of sets a and b and by what share b is worse, and reports whether every
// one is within its bound and every exact counter unchanged.
func compareSets(w io.Writer, docPath, aPath, bPath string) (ok bool, err error) {
	var doc benchmarkDoc
	data, err := os.ReadFile(docPath)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return false, fmt.Errorf("%s: %w", docPath, err)
	}
	a, err := readSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := readSet(bPath)
	if err != nil {
		return false, err
	}
	ok = true
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %8s %6s\n", "workload", "metric", "median a", "median b", "worse", "bound")
	for _, workload := range sortedKeys(a) {
		for _, m := range doc.EndToEnd {
			va, vb := a[workload][m.Name], b[workload][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			verdict := ""
			if worse > m.Bound {
				verdict, ok = "REGRESSION", false
			}
			fmt.Fprintf(w, "%-16s %-24s %14.4f %14.4f %+8.4f %6.2f %s\n", workload, m.Name, ma, mb, worse, m.Bound, verdict)
		}
		for _, name := range exactCounters {
			va, vb := a[workload][name], b[workload][name]
			if va == nil && vb == nil {
				continue
			}
			same := len(va) == len(vb)
			for i := 0; same && i < len(va); i++ {
				same = va[i] == vb[i]
			}
			if !same {
				ok = false
				fmt.Fprintf(w, "%-16s %-24s differs: %v vs %v\n", workload, name, va, vb)
			}
		}
	}
	return ok, nil
}
