package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchDef is BENCHMARK.json.
type benchDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// setupFloor is the absolute slack of setup_s, in seconds: set-up time
// regresses only when it is worse than its relative bound and also grew
// by more than this. A few milliseconds of process start swing by more
// than any relative bound from one host state to the next.
const setupFloor = 0.05

// compareReports prints, for every workload and metric of the base
// report, the base value, the new value and their ratio ("n/a" when the
// base value is 0), and flags an end-to-end metric that got worse than
// its BENCHMARK.json bound. A workload, or an end-to-end metric, that the
// new report lacks counts as a regression too. It returns 1 when there
// was any.
func compareReports(benchPath, basePath, newPath string, stdout, stderr io.Writer) int {
	var def benchDef
	var base, next report
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &def}, {basePath, &base}, {newPath, &next}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	type rule struct {
		better string
		bound  float64
	}
	rules := map[string]rule{}
	for _, m := range def.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	better := map[string]string{}
	for _, m := range def.PerLayer {
		better[m.Name] = m.Better
	}

	regressions := 0
	for _, wl := range sortedKeys(base.Workloads) {
		nw, ok := next.Workloads[wl]
		if !ok {
			fmt.Fprintf(stdout, "%-18s REGRESSION: missing from the new report\n", wl)
			regressions++
			continue
		}
		bw := base.Workloads[wl]
		for _, name := range sortedKeys(bw.Metrics) {
			b := bw.Metrics[name]
			r, endToEnd := rules[name]
			nm, ok := nw.Metrics[name]
			if !ok {
				verdict := ""
				if endToEnd {
					verdict = "  REGRESSION"
					regressions++
				}
				fmt.Fprintf(stdout, "%-18s %-34s base %12.6g %-6s missing from the new report%s\n", wl, name, b.Value, b.Unit, verdict)
				continue
			}
			ratio, verdict := "n/a", ""
			if b.Value != 0 {
				q := nm.Value / b.Value
				ratio = fmt.Sprintf("%.3f", q)
				if endToEnd {
					worse := r.better == "lower" && q > 1+r.bound || r.better == "higher" && q < 1-r.bound
					if name == "setup_s" && nm.Value-b.Value <= setupFloor {
						worse = false
					}
					if worse {
						verdict = fmt.Sprintf("  REGRESSION (bound %.0f%%)", 100*r.bound)
						regressions++
					}
				}
			}
			if dir := better[name]; !endToEnd && dir != "" {
				verdict = "  (" + dir + " is better)"
			}
			fmt.Fprintf(stdout, "%-18s %-34s base %12.6g %-6s new %12.6g  ratio %s%s\n",
				wl, name, b.Value, b.Unit, nm.Value, ratio, verdict)
		}
		if !nw.Correct {
			fmt.Fprintf(stdout, "%-18s new run failed its correctness checks (%d of %d jobs)\n", wl, nw.Failed, nw.Attempted)
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "perfbench: %d regression(s)\n", regressions)
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
