// Command quepa-bench regenerates the figures of the paper's evaluation
// (Section VII) and prints the same series the paper plots. It records and
// compares nothing: performance numbers are measured, compared and guarded
// by the ledger alone (go run ./benchmark).
//
// Usage:
//
//	quepa-bench -fig 9            # one figure (9, 10ab, 10cd, 11ab, 11cd, 11ef, 12, 13ab, 13cd, cache, ablation)
//	quepa-bench -fig all          # the full campaign
//	quepa-bench -fig build        # A' construction sweep: object count × workers
//	quepa-bench -fig recovery     # checkpoint recovery vs re-collection
//	quepa-bench -fig 13cd -quick  # tiny sizes, for smoke-testing the harness
//	quepa-bench -fig 11ab -mutexprofile mutex.pb.gz -blockprofile block.pb.gz
//	                              # also write pprof contention profiles of the
//	                              # campaign (go tool pprof mutex.pb.gz)
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

func main() { os.Exit(run()) }

// run is main behind an exit code, so the deferred profile flushes also run
// when a figure fails — the campaigns one most wants to inspect.
func run() int {
	fig := flag.String("fig", "all", "figure to regenerate, or 'all'")
	quick := flag.Bool("quick", false, "tiny sizes (harness smoke test)")
	seed := flag.Int64("seed", 1, "workload seed")
	budget := flag.Int64("budget", 0, "middleware memory budget in bytes (0 = default)")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile of the campaign to this file")
	blockProfile := flag.String("blockprofile", "", "write a pprof blocking profile of the campaign to this file")
	flag.Parse()

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

	opts := bench.Options{Quick: *quick, Seed: *seed, BaselineBudget: *budget}
	ids := []string{*fig}
	if *fig == "all" {
		ids = bench.FigureNames()
	}
	for _, id := range ids {
		start := time.Now()
		points, err := bench.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quepa-bench: figure %s: %v\n", id, err)
			return 1
		}
		bench.Report(os.Stdout, points)
		fmt.Printf("\n[figure %s regenerated in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
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
