// Command benchmark is the QUEPA ledger: it builds cmd/quepa-server from the
// working tree, runs it as a subprocess in the configuration we ship, drives
// it over loopback HTTP from two closed-loop clients and reports what a
// client sees; a separate traced run replays the same request streams
// in-process through each layer's public functions for the per-layer table.
// See README.md in this directory.
//
//	go run ./benchmark                                  all workloads + traced runs, results file
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                                    one run, one JSON line (the BENCHMARK.json contract)
//	go run ./benchmark layers [--workload W]            traced runs only
//	go run ./benchmark compare A.json B.json            regression verdicts between two results files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"quepa/internal/telemetry"
)

// setupsPerRun is how often at most a run brings its deployment up; setup_s
// is the median. Two is what the driver's time budget leaves at ~4 s a spawn.
const setupsPerRun = 2

func main() {
	// The load generator shares the machine with the servers it measures;
	// pinning it keeps its scheduler footprint the same on bigger machines.
	runtime.GOMAXPROCS(loadClients)
	// The in-process stacks log through the same package the server does;
	// match its -log-level error.
	telemetry.SetLogLevel(telemetry.LogError)
	installSignalCleanup()
	defer func() {
		// A bug must not leave servers running either.
		if r := recover(); r != nil {
			cleanupAll()
			panic(r)
		}
	}()
	err := dispatch(os.Args[1:])
	cleanupAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	mode := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	if mode == "compare" {
		if len(args) != 2 {
			return fmt.Errorf("usage: benchmark compare A.json B.json")
		}
		return compareFiles(args[0], args[1])
	}
	if mode != "" && mode != "layers" {
		return fmt.Errorf("unknown command %q (want layers or compare)", mode)
	}

	spec, err := loadSpec()
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload and print one JSON result line (default: all four, as a ledger)")
	seed := fs.Int64("seed", 1, "seed of the request streams; the server's dataset does not depend on it")
	seconds := fs.Int("seconds", spec.RunSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "with --workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	runs := fs.Int("runs", 1, "ledger mode: repetitions of every workload, on seeds seed, seed+1, ...")
	out := fs.String("out", filepath.Join(buildDir, "ledger", "results.json"), "ledger mode: results file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}

	if mode == "layers" {
		return layersOnly(*workloadName, *seed, *seconds)
	}
	bin, err := buildServer()
	if err != nil {
		return err
	}
	if *workloadName != "" {
		return contractRun(bin, spec, runOptions{Workload: *workloadName, Seed: *seed, Seconds: *seconds,
			Setups: setupsPerRun, Trace: *trace == 1})
	}
	return ledger(bin, spec, *seed, *seconds, *runs, *out)
}

// contractRun is one driver invocation: run, then print the result as the
// last line of standard output.
func contractRun(bin string, spec *benchSpec, o runOptions) error {
	if o.Trace {
		o.Setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	res, err := runWorkload(bin, o)
	if err != nil {
		return err
	}
	defs, measured := spec.EndToEnd, res.EndToEnd
	if o.Trace {
		defs, measured = spec.PerLayer, res.PerLayer
	}
	reported := metrics{}
	for _, d := range defs {
		m, ok := measured[d.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name)
		}
		reported[d.Name] = m
	}
	for _, v := range res.Preconditions {
		fmt.Fprintln(os.Stderr, "benchmark: precondition violated:", v)
	}
	if res.FirstFailure != "" {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", res.FirstFailure)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": res.Attempted, "failed": res.Failed, "metrics": reported,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct() {
		return fmt.Errorf("%s seed %d: %d of %d requests failed, %d preconditions violated",
			o.Workload, o.Seed, res.Failed, res.Attempted, len(res.Preconditions))
	}
	return nil
}

// machineShape is recorded next to every baseline: numbers from two shapes
// do not compare.
type machineShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"loadgen_gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func machine() machineShape {
	m := machineShape{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
	}
	return m
}

// resultsFile is what ledger mode writes and compare reads.
type resultsFile struct {
	Machine machineShape `json:"machine"`
	Started string       `json:"started"`
	Seed    int64        `json:"seed"`
	Seconds int          `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// ledger runs every workload with its traced run, prints every metric by
// name with unit and sample count, and writes the results file.
func ledger(bin string, spec *benchSpec, seed int64, seconds, runs int, out string) error {
	file := resultsFile{Machine: machine(), Started: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds}
	fmt.Printf("machine: %+v\n", file.Machine)
	failed := false
	for r := 0; r < runs; r++ {
		for _, w := range spec.Workloads {
			res, err := runWorkload(bin, runOptions{Workload: w.Name, Seed: seed + int64(r), Seconds: seconds,
				Setups: setupsPerRun, Trace: true})
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, res)
			printRun(spec, res)
			failed = failed || !res.correct()
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresults: %s\n", out)
	if failed {
		return fmt.Errorf("at least one run failed its reference check or a precondition")
	}
	return nil
}

// printRun prints one run's tables.
func printRun(spec *benchSpec, r *runResult) {
	fmt.Printf("\n== %s  seed %d  %d s timed, %d requests (%d search, %d step latencies; highest supported percentile %s)\n",
		r.Workload, r.Seed, r.Seconds, r.Samples["timed_requests"], r.Samples["search_latencies"], r.Samples["step_latencies"],
		supported(r.Samples["search_latencies"]))
	fmt.Printf("   fail_share %.6f (%d of %d, check phase %d requests)   server config after run: %s\n",
		r.failShare(), r.Failed, r.Attempted, r.Samples["check_requests"], r.ServerConfig)
	if r.FirstFailure != "" {
		fmt.Printf("   first failure: %s\n", r.FirstFailure)
	}
	for _, v := range r.Preconditions {
		fmt.Printf("   PRECONDITION VIOLATED: %s\n", v)
	}
	fmt.Println("   end to end:")
	for _, d := range spec.EndToEnd {
		m := r.EndToEnd[d.Name]
		fmt.Printf("     %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Printf("   per layer (trace: %d requests in-process, %d one-client search latencies):\n",
		r.Samples["traced_requests"], r.Samples["http1c_search_latencies"])
	printMetrics(r.PerLayer)
}

// printMetrics prints metrics by name, with value and unit.
func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("     %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func supported(n int) string {
	if label, ok := highestPercentile(n); ok {
		return label
	}
	return "none"
}

// layersOnly is `benchmark layers`: the traced run without any server.
func layersOnly(workloadName string, seed int64, seconds int) error {
	names := workloadNames
	if workloadName != "" {
		names = []string{workloadName}
	}
	base, err := buildBase()
	if err != nil {
		return err
	}
	for _, name := range names {
		st, err := buildStream(name, seed)
		if err != nil {
			return err
		}
		dir := outDir(name, seed)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		rep, err := tracedRun(base, name, seed, st.Timed, time.Duration(seconds)*time.Second/5, dir)
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s  seed %d  %d requests replayed in-process; accounting gap %.1f%% (rule: within %.0f%%)\n",
			name, seed, rep.requests, 100*rep.accountingGap, 100*accountingTolerance)
		printMetrics(rep.layers)
		fmt.Printf("   spans: %s\n", filepath.Join(dir, "trace."+name+".json"))
	}
	return nil
}
