package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setupBudgetS is how much bring-up time a run may have spent and still
// bring the deployment up once more for a second setup_s reading.
const setupBudgetS = 8

// runOptions selects what one workload run does.
type runOptions struct {
	Workload string
	Seed     int64
	Seconds  int
	// Setups is how many times at most the deployment is brought up; setup_s
	// is the median. The last one serves the run.
	Setups int
	// Trace adds the traced in-process replay and the one-client pass, which
	// the per-layer table needs and the end-to-end metrics must not see.
	Trace bool
}

// runResult is one workload run: what the results file stores per run.
type runResult struct {
	Workload      string         `json:"workload"`
	Seed          int64          `json:"seed"`
	Seconds       int            `json:"seconds"`
	Attempted     int            `json:"attempted"`
	Failed        int            `json:"failed"`
	FirstFailure  string         `json:"first_failure,omitempty"`
	Preconditions []string       `json:"precondition_violations,omitempty"`
	EndToEnd      metrics        `json:"end_to_end"`
	PerLayer      metrics        `json:"per_layer,omitempty"`
	Samples       map[string]int `json:"samples"`
	ServerConfig  string         `json:"server_config,omitempty"`
}

// correct is the contract's verdict on a run.
func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Preconditions) == 0 }

// failShare is failures over attempts — the ISSUE's fail_share. The contract
// reports it through attempted/failed instead of as a metric, because an
// end-to-end metric may never be 0 and this one must always be.
func (r *runResult) failShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// outDir is where a run leaves its audit files.
func outDir(workloadName string, seed int64) string {
	return filepath.Join(buildDir, "ledger", fmt.Sprintf("%s.seed%d", workloadName, seed))
}

// runWorkload runs the phases of one workload: oracle build → [traced
// replay] → spawn (×Setups) → check → warm-up → timed → [one-client pass] →
// scrape → kill.
func runWorkload(bin string, o runOptions) (*runResult, error) {
	st, err := buildStream(o.Workload, o.Seed)
	if err != nil {
		return nil, err
	}
	dir := outDir(o.Workload, o.Seed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeStreams(dir, st); err != nil {
		return nil, err
	}

	res := &runResult{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds,
		EndToEnd: metrics{}, Samples: map[string]int{}}
	limit := time.Duration(o.Seconds) * time.Second
	// Phase times go to standard error: a run that nears the driver's cap
	// should say where its time went.
	phaseStart := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %s %.1fs\n", o.Workload, o.Seed, name, time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
	}

	base, err := buildBase()
	if err != nil {
		return nil, err
	}
	phase("oracle build")
	var traced *layerReport
	if o.Trace {
		// Before any server exists, so the replay has the machine to itself.
		if traced, err = tracedRun(base, o.Workload, o.Seed, st.Timed, limit/5, dir); err != nil {
			return nil, err
		}
		phase("traced run")
	}

	// setup_s is the median over bring-ups: a second one is measured unless
	// the first already used up the budget (the three-process cluster does).
	var setups []float64
	var dep *deployment
	for spent := 0.0; len(setups) < o.Setups && (dep == nil || spent < setupBudgetS); spent += dep.setupS {
		if dep != nil {
			dep.stop()
		}
		if dep, err = deploy(bin, o.Workload); err != nil {
			return nil, err
		}
		setups = append(setups, dep.setupS)
	}
	defer dep.stop()
	target := dep.procs[0].base
	phase("setup")

	if res.Attempted, res.Failed, res.FirstFailure, err = checkPhase(target, base, st.Timed, o.Seed); err != nil {
		return nil, err
	}
	res.Samples["check_requests"] = res.Attempted
	// The oracle was a second copy of the dataset; drop it so the load
	// generator's garbage collector has a small heap to mark while it times.
	base = nil
	runtime.GC()
	debug.FreeOSMemory()
	phase("check")
	warm := runLoad(target, st.Warmup, loadClients, o.Seed, 0, nil)
	res.add(warm)
	phase("warm-up")

	m, err := measure(dep, st.Timed, o.Seed, limit)
	if err != nil {
		return nil, err
	}
	timed := m.load
	res.add(timed)
	phase("timed")
	w := windowed(timed, m.cpuAt)
	if w.windows == 0 || w.searches == 0 {
		return nil, fmt.Errorf("%s: timed phase completed no whole window: %s", o.Workload, timed.firstFailure)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: requests per 1 s window %v\n", o.Workload, o.Seed, w.perWindow)

	e := res.EndToEnd
	e.set("setup_s", median(setups), "s")
	e.set("ops_per_s", w.opsPerS, "1/s")
	e.set("p50_ms", w.p50, "ms")
	e.set("p90_ms", w.p90, "ms")
	e.set("cpu_ms_per_op", w.cpuMSPerOp, "ms")
	e.set("rss_mb", m.hwmMB, "MB")
	res.Samples["timed_requests"] = timed.attempted
	res.Samples["windows"] = w.windows
	res.Samples["search_latencies"] = w.searches
	res.Samples["step_latencies"] = w.steps
	res.Samples["tail_windows"] = w.tailWindows
	res.Samples["setups"] = len(setups)

	res.PerLayer = scrapeLayers(m.counters, timed)
	res.PerLayer.set("server.p99_ms", w.p99, "ms")
	res.PerLayer.set("explore.step_p50_ms", w.stepP50, "ms")
	res.PerLayer.set("explore.step_p99_ms", w.stepP99, "ms")
	res.PerLayer.set("loadgen.cpu_share", m.loadgenCPUSeconds/timed.wall.Seconds(), "ratio")
	res.Preconditions = preconditions(o.Workload, res.PerLayer)

	if o.Trace {
		// One client, same stream from its start: what a request costs a
		// client when nothing else is in flight.
		one := runLoad(target, head(st.Timed, traced.requests), 1, o.Seed, limit/5, nil)
		res.add(one)
		phase("one-client pass")
		oneMS := one.latencies(reqSearch, 0, math.Inf(1))
		res.Samples["http1c_search_latencies"] = len(oneMS)
		res.Samples["traced_requests"] = traced.requests
		http1c := percentile(oneMS, 0.50)
		for name, m := range traced.layers {
			res.PerLayer[name] = m
		}
		res.PerLayer.set("server.http1c_ms", http1c, "ms")
		inProcessMS := (traced.layers["augment.search_us"].Value + traced.layers["augment.rank_us"].Value) / 1000
		res.PerLayer.set("server.residual_ms", http1c-inProcessMS, "ms")
		if traced.accountingGap > accountingTolerance && (o.Workload == rangeCold || o.Workload == clusterKeyed) {
			res.Preconditions = append(res.Preconditions, fmt.Sprintf(
				"span accounting: layers sum to %.1f%% off augment.search_us (tolerance %.0f%%): a span is missing",
				100*traced.accountingGap, 100*accountingTolerance))
		}
	}
	res.ServerConfig = serverConfigString(dep.procs[0])
	return res, nil
}

// writeStreams leaves the request streams in dir, for audit.
func writeStreams(dir string, st stream) error {
	for phase, ops := range map[string][]op{"warmup": st.Warmup, "timed": st.Timed} {
		f, err := os.Create(filepath.Join(dir, "stream."+phase+".txt"))
		if err != nil {
			return err
		}
		err = writeStream(f, ops)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// measurement is the timed phase with everything read around and during it.
type measurement struct {
	load              loadResult
	cpuAt             []float64 // the servers' CPU clock at second 0, 1, 2, ...
	counters          promDelta // procs[0]'s /metrics before and after
	hwmMB             float64   // Σ VmHWM at the end
	loadgenCPUSeconds float64
}

// measure runs the timed phase: loadClients closed-loop clients for limit,
// the servers' CPU clock read at every whole second (so CPU per request can
// be taken window by window like the client-side numbers), /metrics and
// /proc read before and after.
func measure(dep *deployment, ops []op, seed int64, limit time.Duration) (*measurement, error) {
	target := dep.procs[0]
	before, err := scrape(target)
	if err != nil {
		return nil, deadOr(dep, err)
	}
	usageBefore, err := dep.usage()
	if err != nil {
		return nil, deadOr(dep, err)
	}
	selfBefore, err := readProc("self")
	if err != nil {
		return nil, err
	}
	m := &measurement{cpuAt: []float64{usageBefore.cpuSeconds}}
	m.load = runLoad(target.base, ops, loadClients, seed, limit, func(int) {
		if u, err := dep.usage(); err == nil {
			m.cpuAt = append(m.cpuAt, u.cpuSeconds)
		}
	})
	selfAfter, err := readProc("self")
	if err != nil {
		return nil, err
	}
	usageAfter, err := dep.usage()
	if err != nil {
		return nil, deadOr(dep, err)
	}
	if len(m.cpuAt) <= int(m.load.wall.Seconds()) {
		m.cpuAt = append(m.cpuAt, usageAfter.cpuSeconds) // the phase's last whole second ends here
	}
	after, err := scrape(target)
	if err != nil {
		return nil, deadOr(dep, err)
	}
	if err := dep.dead(); err != nil {
		return nil, err
	}
	m.counters = promDelta{before: before, after: after}
	m.hwmMB = usageAfter.hwmMB
	m.loadgenCPUSeconds = selfAfter.cpuSeconds - selfBefore.cpuSeconds
	return m, nil
}

// tailSamples is how many latencies a window needs before its 99th
// percentile is taken: ten beyond it.
const tailSamples = 1000

// windowStats is the timed phase seen through whole-second windows.
type windowStats struct {
	windows, tailWindows int
	searches, steps      int   // latencies inside whole windows
	perWindow            []int // requests completed per window
	opsPerS, cpuMSPerOp  float64
	p50, p90, p99        float64
	stepP50, stepP99     float64
}

// windowed cuts the timed phase into 1 s windows by completion time and
// reports the midmean of the windows — the mean of what is left after
// dropping the lowest and the highest quarter — for every number, so a
// disturbance shorter than a quarter of the run moves none of them, and a
// workload whose seconds differ a lot among themselves (explore_mutate:
// promotions come in lumps) still averages over most of the run. Throughput,
// CPU per request and the 50th and 90th percentile come from 1 s windows. A
// 99th percentile needs tailSamples latencies, so it comes from wider
// windows, as many whole seconds as that takes; when the phase holds fewer
// than tailSamples it is the 99th percentile of the whole phase. cpuAt holds
// the servers' CPU clock at second 0, 1, 2, ...
func windowed(l loadResult, cpuAt []float64) windowStats {
	var w windowStats
	w.windows = len(cpuAt) - 1
	if w.windows < 1 {
		return w
	}
	end := float64(w.windows)
	w.perWindow = make([]int, w.windows)
	for _, s := range l.samples {
		if s.at < end {
			w.perWindow[int(s.at)]++
		}
	}
	var ops, cpu, p50, p90, stepP50 []float64
	for k, n := range w.perWindow {
		ops = append(ops, float64(n))
		if n > 0 {
			cpu = append(cpu, 1000*(cpuAt[k+1]-cpuAt[k])/float64(n))
		}
		from, to := float64(k), float64(k+1)
		if ms := l.latencies(reqSearch, from, to); len(ms) > 0 {
			p50 = append(p50, percentile(ms, 0.50))
			p90 = append(p90, percentile(ms, 0.90))
		}
		if ms := l.latencies(reqStep, from, to); len(ms) > 0 {
			stepP50 = append(stepP50, percentile(ms, 0.50))
		}
	}
	w.opsPerS, w.cpuMSPerOp = midmean(ops), midmean(cpu)
	w.p50, w.p90, w.stepP50 = midmean(p50), midmean(p90), midmean(stepP50)
	w.searches = len(l.latencies(reqSearch, 0, end))
	w.steps = len(l.latencies(reqStep, 0, end))
	w.p99, w.tailWindows = tail(l, reqSearch, w.searches, w.windows)
	w.stepP99, _ = tail(l, reqStep, w.steps, w.windows)
	return w
}

// tail returns the midmean 99th percentile over windows wide enough to hold
// tailSamples of the n latencies the phase's whole seconds hold.
func tail(l loadResult, kind uint8, n, seconds int) (p99 float64, windows int) {
	if n == 0 {
		return 0, 0
	}
	width := seconds
	if n >= tailSamples {
		width = (tailSamples*seconds + n - 1) / n // whole seconds per tailSamples latencies, rounded up
	}
	var p99s []float64
	for from := 0; from+width <= seconds; from += width {
		if ms := l.latencies(kind, float64(from), float64(from+width)); len(ms) > 0 {
			p99s = append(p99s, percentile(ms, 0.99))
		}
	}
	return midmean(p99s), len(p99s)
}

// add folds a load phase's attempts and failures into the run.
func (r *runResult) add(l loadResult) {
	r.Attempted += l.attempted
	r.Failed += l.failed
	if r.FirstFailure == "" {
		r.FirstFailure = l.firstFailure
	}
}

// deadOr prefers the report of a dead server over the error it caused.
func deadOr(dep *deployment, err error) error {
	if derr := dep.dead(); derr != nil {
		return derr
	}
	return err
}

// serverConfigString reads the augmenter configuration the adaptive optimizer
// left the server in, from /stats; "" when it cannot be read.
func serverConfigString(p *serverProc) string {
	resp, err := http.Get(p.base + "/stats")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var stats struct {
		Config string `json:"config"`
	}
	if json.NewDecoder(resp.Body).Decode(&stats) != nil {
		return ""
	}
	return stats.Config
}

var storeNames = []string{"catalogue", "discount", "similar-items", "transactions"}

// scrapeLayers derives the per-layer metrics that are deltas of the
// program's own counters around the timed phase, plus the client-counted
// ones. Metrics of a layer the workload does not reach come out 0.
func scrapeLayers(d promDelta, timed loadResult) metrics {
	m := metrics{}
	ops := float64(timed.attempted)
	const httpHist = "quepa_http_request_duration_seconds"
	handler, _ := d.histMean(httpHist, "route", "/search")
	m.set("server.handler_ms", 1000*handler, "ms")
	step, _ := d.histMean(httpHist, "route", "/explore/step")
	m.set("server.handler_step_ms", 1000*step, "ms")
	m.set("server.resp_bytes_per_op", float64(timed.bytesRead)/ops, "B")

	for _, db := range storeNames {
		var sum, count float64
		for _, op := range []string{"get", "getbatch", "query"} {
			sum += d.counter("quepa_store_op_duration_seconds_sum", "db", db, "op", op)
			count += d.counter("quepa_store_op_duration_seconds_count", "db", db, "op", op)
		}
		m.set("stores.op_ms."+db, 1000*ratio(sum, count), "ms")
	}

	m.set("aindex.promotions", d.counter("quepa_aindex_promotions_total"), "count")
	m.set("aindex.snapshot_rebuilds", d.counter("quepa_aindex_snapshot_rebuilds_total"), "count")
	m.set("aindex.reach_fallback", d.counter("quepa_aindex_reach_fallback_total"), "count")

	hits, misses := d.counter("quepa_rcache_hits_total"), d.counter("quepa_rcache_misses_total")
	m.set("rcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("rcache.evictions_per_op", d.counter("quepa_rcache_evictions_total")/ops, "1/op")
	m.set("rcache.epoch_mismatches", d.counter("quepa_rcache_epoch_mismatch_total"), "count")
	m.set("rcache.invalidations", d.counter("quepa_rcache_invalidations_total"), "count")

	hits, misses = d.counter("quepa_cache_hits_total"), d.counter("quepa_cache_misses_total")
	m.set("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("cache.evictions_per_op", d.counter("quepa_cache_evictions_total")/ops, "1/op")

	for _, op := range []string{"reach", "getbatch"} {
		m.set("wire.frames_per_op."+op, d.counter("quepa_wire_client_frames_total", "op", op)/ops, "1/op")
		bytes := d.counter("quepa_wire_client_bytes_total", "dir", "out", "op", op) +
			d.counter("quepa_wire_client_bytes_total", "dir", "in", "op", op)
		m.set("wire.bytes_per_op."+op, bytes/ops, "B/op")
	}

	m.set("cluster.scatter_per_op", d.counter("quepa_cluster_scatter_total")/ops, "1/op")
	m.set("cluster.remote_fetch_per_op", d.counter("quepa_cluster_remote_fetch_total")/ops, "1/op")
	shipped, suppressed := d.counter("quepa_cluster_delta_keys_total"), d.counter("quepa_cluster_delta_suppressed_total")
	m.set("cluster.delta_suppressed_share", ratio(suppressed, shipped+suppressed), "ratio")
	m.set("cluster.peer_open", d.counter("quepa_cluster_peer_open_total"), "count")

	appends := d.counter("quepa_wal_appends_total")
	m.set("wal.appends", appends, "count")
	m.set("wal.bytes_per_append", ratio(d.counter("quepa_wal_append_bytes_total"), appends), "B")
	fsync, _ := d.histMean("quepa_wal_fsync_seconds")
	m.set("wal.fsync_ms", 1000*fsync, "ms")

	m.set("optimizer.retrains", d.counter("quepa_optimizer_retrain_total"), "count")
	return m
}

// preconditions returns what a workload must show to still be exercising its
// layer; any violation fails the run.
func preconditions(workloadName string, l metrics) []string {
	var bad []string
	require := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	v := func(name string) float64 { return l[name].Value }
	switch workloadName {
	case pointHot:
		require(v("rcache.hit_ratio") >= 0.9, "rcache.hit_ratio %.3f < 0.9: the working set no longer fits the result cache", v("rcache.hit_ratio"))
	case rangeCold:
		require(v("cache.hit_ratio") <= 0.5, "cache.hit_ratio %.3f > 0.5: the working set no longer exceeds the object cache", v("cache.hit_ratio"))
	case clusterKeyed:
		require(v("cluster.scatter_per_op") > 0, "cluster.scatter_per_op is 0: no scatter leg ran")
		require(v("cluster.peer_open") == 0, "cluster.peer_open %.0f: a peer breaker opened", v("cluster.peer_open"))
	case exploreMutate:
		require(v("aindex.promotions") >= 20, "aindex.promotions %.0f < 20", v("aindex.promotions"))
		require(v("wal.appends") >= v("aindex.promotions"), "wal.appends %.0f < aindex.promotions %.0f", v("wal.appends"), v("aindex.promotions"))
		require(v("rcache.epoch_mismatches") > 0, "rcache.epoch_mismatches is 0: promotions no longer invalidate")
	}
	return bad
}
