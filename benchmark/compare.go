package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the one place workloads, metrics, directions
// and regression bounds are fixed. Both the runner and compare read it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// layerBounds lists the per-layer metrics compare shows next to the
// end-to-end ones, with the bound each is read against. They are what the
// issue calls p99_ms, step_p50_ms and step_p99_ms. BENCHMARK.json cannot list
// them end to end — the driver wants every end-to-end metric on every
// workload (three have no steps) and every A/A spread inside the bound (the
// 99th percentile of an 8 s phase spreads by 25% on explore_mutate, the
// largest bound there is) — and a per-layer entry has no bound, so compare
// brings its own. Their rows do not decide the exit status: two identical
// sets of five 8 s runs differ by 40% on explore.step_p99_ms.
var layerBounds = []metricDef{
	{Name: "server.p99_ms", Better: "lower", Bound: 0.25},
	{Name: "explore.step_p50_ms", Better: "lower", Bound: 0.25},
	{Name: "explore.step_p99_ms", Better: "lower", Bound: 0.25},
}

// Verdicts of one workload × metric row.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictWorse      = "worse (not gated)"
)

// judge compares B against A for one metric. worse is how much worse B's
// median is as a share of A's (negative when better). A change inside the
// bound is "unchanged" only if A's own run-to-run spread is inside the bound
// too; otherwise the runs cannot tell, and the row says so.
func judge(a, b []float64, def metricDef) (verdict string, worse float64, spread float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == "higher" {
			worse = -worse
		}
	}
	spread, haveSpread := spreadShare(a)
	switch {
	case worse > def.Bound:
		verdict = verdictRegression
	case haveSpread && spread > def.Bound:
		verdict = verdictUnresolved
	case worse < -def.Bound:
		verdict = verdictImproved
	default:
		verdict = verdictUnchanged
	}
	return verdict, worse, spread
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over every run of a file.
func (f *resultsFile) values(workloadName string, get func(*runResult) (float64, bool)) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workloadName {
			continue
		}
		if v, ok := get(r); ok {
			out = append(out, v)
		}
	}
	return out
}

// compareFiles prints one row per workload × end-to-end metric (and per
// layerBounds entry) and returns an error on an end-to-end regression or a
// higher fail_share.
func compareFiles(pathA, pathB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if a.Machine.NProc != b.Machine.NProc || a.Seconds != b.Seconds {
		fmt.Printf("warning: A ran on nproc=%d for %d s, B on nproc=%d for %d s; the numbers may not compare\n",
			a.Machine.NProc, a.Seconds, b.Machine.NProc, b.Seconds)
	}
	fmt.Printf("%-15s %-20s %12s %12s %9s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "A spread", "verdict")
	bad := 0
	row := func(w string, def metricDef, gated bool, get func(*runResult) (float64, bool)) {
		va, vb := a.values(w, get), b.values(w, get)
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		verdict, worse, spread := judge(va, vb, def)
		switch {
		case verdict == verdictRegression && gated:
			bad++
		case verdict == verdictRegression:
			verdict = verdictWorse
		}
		fmt.Printf("%-15s %-20s %12.4f %12.4f %+8.1f%% %7.0f%% %7.1f%%  %s\n",
			w, def.Name, median(va), median(vb), 100*worse, 100*def.Bound, 100*spread, verdict)
	}
	for _, w := range spec.Workloads {
		for _, def := range spec.EndToEnd {
			def := def
			row(w.Name, def, true, func(r *runResult) (float64, bool) { m, ok := r.EndToEnd[def.Name]; return m.Value, ok })
		}
		for _, def := range layerBounds {
			def := def
			row(w.Name, def, false, func(r *runResult) (float64, bool) {
				m, ok := r.PerLayer[def.Name]
				return m.Value, ok && m.Value > 0 // 0: the workload has no such request
			})
		}
		// fail_share has no bound: any increase fails.
		fa := median(a.values(w.Name, func(r *runResult) (float64, bool) { return r.failShare(), true }))
		fb := median(b.values(w.Name, func(r *runResult) (float64, bool) { return r.failShare(), true }))
		verdict := verdictUnchanged
		if fb > fa {
			verdict = verdictRegression
			bad++
		}
		fmt.Printf("%-15s %-20s %12.6f %12.6f %9s %8s %8s  %s\n", w.Name, "fail_share", fa, fb, "", "any", "", verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions between %s and %s", bad, pathA, pathB)
	}
	return nil
}
