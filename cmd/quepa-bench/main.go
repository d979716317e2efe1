// Command quepa-bench regenerates the figures of the paper's evaluation
// (Section VII) and prints the same series the paper plots.
//
// Usage:
//
//	quepa-bench -fig 9            # one figure (9, 10ab, 10cd, 11ab, 11cd, 11ef, 12, 13ab, 13cd)
//	quepa-bench -fig all          # the full campaign
//	quepa-bench -fig build        # A' construction sweep: object count × workers
//	quepa-bench -fig 13cd -quick  # tiny sizes, for smoke-testing the harness
//	quepa-bench -json out.json    # also write the points as a RunRecord
//	quepa-bench -fig 11ab -mutexprofile mutex.pb.gz -blockprofile block.pb.gz
//	                              # also write pprof contention profiles of the
//	                              # campaign (go tool pprof mutex.pb.gz)
//
//	quepa-bench -compare BENCH_PR1.json -tolerance 0.30 new.json
//	                              # diff a new RunRecord against a baseline:
//	                              # prints a markdown delta table and exits 1
//	                              # when any matched point slowed down by more
//	                              # than the tolerance (the CI bench guard)
//
// With -json, every measured point of the campaign is written to the named
// file as an indented bench.RunRecord — the format of the per-PR
// BENCH_<label>.json baselines at the repository root. Adding
// -explain-sample=K attaches the EXPLAIN profile of every K-th measured
// search to the record, so a campaign documents not just how long the
// strategies took but what they actually did.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"quepa/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate, or 'all'")
	quick := flag.Bool("quick", false, "tiny sizes (harness smoke test)")
	seed := flag.Int64("seed", 1, "workload seed")
	budget := flag.Int64("budget", 0, "middleware memory budget in bytes (0 = default)")
	jsonOut := flag.String("json", "", "also write the campaign to this file as JSON")
	label := flag.String("label", "", "label recorded in the -json output (e.g. PR1)")
	explainSample := flag.Int("explain-sample", 0, "attach the EXPLAIN profile of every K-th search to the -json record (0 disables)")
	compare := flag.String("compare", "", "baseline RunRecord to diff against; the new record is the positional argument")
	tolerance := flag.Float64("tolerance", 0.30, "with -compare: allowed slowdown fraction before a point fails")
	bestOf := flag.Int("best-of", 1, "run each figure N times and keep every point's fastest measurement (steadies the -compare guard)")
	skew := flag.Float64("skew", 0, "Zipf exponent of the skewed origin stream for -fig rcache (must be > 1; 0 selects 1.1)")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile of the campaign to this file")
	blockProfile := flag.String("blockprofile", "", "write a pprof blocking profile of the campaign to this file")
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *tolerance, flag.Args()))
	}

	// Arm the contention profilers before any benchmark work runs; the
	// profiles are flushed after the campaign so they cover every figure.
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProfile)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockProfile)
	}

	if *skew != 0 && *skew <= 1 {
		fmt.Fprintf(os.Stderr, "quepa-bench: -skew %g: the Zipf exponent must be > 1\n", *skew)
		os.Exit(2)
	}
	opts := bench.Options{Quick: *quick, Seed: *seed, BaselineBudget: *budget, Skew: *skew}
	bench.SetExplainSampling(*explainSample)

	ids := []string{*fig}
	if *fig == "all" {
		ids = bench.FigureNames()
	}
	var all []bench.Point
	for _, id := range ids {
		start := time.Now()
		points, err := bench.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quepa-bench: figure %s: %v\n", id, err)
			os.Exit(1)
		}
		for rep := 1; rep < *bestOf; rep++ {
			again, err := bench.Run(id, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quepa-bench: figure %s (repeat %d): %v\n", id, rep, err)
				os.Exit(1)
			}
			points = bench.BestOf(points, again)
		}
		bench.Report(os.Stdout, points)
		fmt.Printf("\n[figure %s regenerated in %v]\n", id, time.Since(start).Round(time.Millisecond))
		all = append(all, points...)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quepa-bench: %v\n", err)
			os.Exit(1)
		}
		err = bench.WriteJSON(f, *label, opts, ids, all)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "quepa-bench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("[campaign written to %s]\n", *jsonOut)
	}
}

// writeProfile flushes one of the runtime's pprof profiles to a file; the
// resulting files feed `go tool pprof` to localize lock convoys on the fetch
// hot path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quepa-bench: %v\n", err)
		return
	}
	err = pprof.Lookup(name).WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "quepa-bench: writing %s profile: %v\n", name, err)
		return
	}
	fmt.Printf("[%s profile written to %s]\n", name, path)
}

// runCompare implements -compare: diff a new RunRecord against a baseline,
// print the delta table as markdown (CI appends it to the step summary), and
// return 1 when any matched point regressed past the tolerance.
func runCompare(baselinePath string, tolerance float64, args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: quepa-bench -compare <baseline.json> [-tolerance 0.30] <new.json>")
		return 2
	}
	old, err := bench.ReadRecordFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quepa-bench: %v\n", err)
		return 2
	}
	cur, err := bench.ReadRecordFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "quepa-bench: %v\n", err)
		return 2
	}
	if warn := bench.EnvironmentMismatch(old, cur); warn != "" {
		fmt.Fprintf(os.Stderr, "quepa-bench: WARNING: %s\n", warn)
	}
	cmp := bench.Compare(old, cur, tolerance)
	if err := cmp.WriteMarkdown(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "quepa-bench: %v\n", err)
		return 2
	}
	if regs := cmp.Regressions(); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "quepa-bench: %d point(s) regressed beyond +%.0f%% vs %s\n",
			len(regs), tolerance*100, baselinePath)
		return 1
	}
	return 0
}
