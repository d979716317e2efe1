package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func renderStream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	st, err := buildStream(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ops := range [][]op{st.Warmup, st.Timed} {
		if err := writeStream(&buf, ops); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestStreamIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	seen := map[string]string{}
	for _, name := range workloadNames {
		a, b, other := renderStream(t, name, 1), renderStream(t, name, 1), renderStream(t, name, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations with seed 1 differ", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", name)
		}
		if prev, dup := seen[string(a)]; dup {
			t.Errorf("%s and %s share a stream", name, prev)
		}
		seen[string(a)] = name
	}
	if _, err := buildStream("no_such_workload", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestStreamShapes(t *testing.T) {
	for name, counts := range streamCounts {
		st, err := buildStream(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		perSlot := 1
		if name == exploreMutate {
			perSlot = 1 + slotSearches
		}
		if len(st.Warmup) != counts[0]*perSlot || len(st.Timed) != counts[1]*perSlot {
			t.Errorf("%s: %d warm-up and %d timed ops, want %d and %d", name, len(st.Warmup), len(st.Timed), counts[0]*perSlot, counts[1]*perSlot)
		}
	}
	st, _ := buildStream(exploreMutate, 7)
	requests := 0
	for _, o := range st.Timed[:1+slotSearches] {
		requests += o.requests()
	}
	if requests != 14 {
		t.Errorf("an explore_mutate slot is %d requests, want 14", requests)
	}
	if q := keyedSearch(3).Query; strings.Count(q, "'a") != keyedWidth || !strings.Contains(q, "'a18'") {
		t.Errorf("keyed search %q does not name %d consecutive ids from a3", q, keyedWidth)
	}
}

func TestChooseLink(t *testing.T) {
	links := []string{"a", "b", "c", "d"}
	got := chooseLink(1, "x", links, []string{"x"})
	if got == "" || got != chooseLink(1, "x", links, []string{"x"}) {
		t.Errorf("choice not repeatable: %q", got)
	}
	if got := chooseLink(1, "x", links, []string{"a", "b", "d"}); got != "c" {
		t.Errorf("only c is off the path, chose %q", got)
	}
	if got := chooseLink(1, "x", links, links); got != "" {
		t.Errorf("every link on the path, chose %q", got)
	}
	differs := false
	for seed := int64(2); seed < 10; seed++ {
		differs = differs || chooseLink(seed, "x", links, nil) != chooseLink(1, "x", links, nil)
	}
	if !differs {
		t.Error("the seed never changes the choice")
	}
}

func TestPercentiles(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]string{99: "", 100: "p90", 999: "p90", 1000: "p99", 9999: "p99", 10000: "p99.9", 100000: "p99.99"} {
		got, ok := highestPercentile(n)
		if got != want || ok != (want != "") {
			t.Errorf("highestPercentile(%d) = %q, %v; want %q", n, got, ok, want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// Eight values: the two lowest and the two highest go.
	if m := midmean([]float64{100, 1, 5, 4, 3, 6, 2, -50}); m != 3.5 {
		t.Errorf("midmean of eight = %v, want 3.5", m)
	}
	if m := midmean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("midmean of three = %v, want their mean 3", m)
	}
	if midmean(nil) != 0 {
		t.Error("midmean of nothing is not 0")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(vs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if share, ok := spreadShare(vs); !ok || math.Abs(share-1) > 1e-12 {
		t.Errorf("spreadShare = %v, %v; want 1", share, ok)
	}
	if _, ok := spreadShare([]float64{3}); ok {
		t.Error("a spread from one value")
	}
}

const exposition = `# HELP quepa_http_request_duration_seconds latency of HTTP requests by route
# TYPE quepa_http_request_duration_seconds histogram
quepa_http_request_duration_seconds_bucket{route="/search",le="0.001"} 7
quepa_http_request_duration_seconds_bucket{route="/search",le="+Inf"} 10
quepa_http_request_duration_seconds_sum{route="/search"} 0.25
quepa_http_request_duration_seconds_count{route="/search"} 10
# TYPE quepa_rcache_hits_total counter
quepa_rcache_hits_total 41
quepa_wire_client_bytes_total{dir="out",op="reach"} 1.5e+06
quepa_odd_total{note="a b} c"} 3
`

func TestParseProm(t *testing.T) {
	got, err := parseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	want := promSamples{
		`quepa_http_request_duration_seconds_bucket{route="/search",le="0.001"}`: 7,
		`quepa_http_request_duration_seconds_bucket{route="/search",le="+Inf"}`:  10,
		`quepa_http_request_duration_seconds_sum{route="/search"}`:               0.25,
		`quepa_http_request_duration_seconds_count{route="/search"}`:             10,
		`quepa_rcache_hits_total`:                             41,
		`quepa_wire_client_bytes_total{dir="out",op="reach"}`: 1.5e6,
		`quepa_odd_total{note="a b} c"}`:                      3,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseProm(strings.NewReader("quepa_x_total notanumber\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}

	after, err := parseProm(strings.NewReader(strings.NewReplacer(
		`_sum{route="/search"} 0.25`, `_sum{route="/search"} 0.75`,
		`_count{route="/search"} 10`, `_count{route="/search"} 20`,
		"hits_total 41", "hits_total 50").Replace(exposition)))
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta{before: got, after: after}
	if mean, n := d.histMean("quepa_http_request_duration_seconds", "route", "/search"); n != 10 || math.Abs(mean-0.05) > 1e-12 {
		t.Errorf("histMean = %v over %v, want 0.05 over 10", mean, n)
	}
	if c := d.counter("quepa_rcache_hits_total"); c != 9 {
		t.Errorf("counter delta = %v, want 9", c)
	}
	if mean, n := d.histMean("quepa_wal_fsync_seconds"); mean != 0 || n != 0 {
		t.Errorf("absent histogram = %v over %v", mean, n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []span{{Start: 110, End: 120}, {Start: 130, End: 150}}, 70},
		{"overlapping fetches count once", []span{{Start: 110, End: 150}, {Start: 120, End: 160}, {Start: 125, End: 130}}, 50},
		{"clipped to the parent", []span{{Start: 50, End: 110}, {Start: 190, End: 400}}, 80},
		{"outside the parent", []span{{Start: 10, End: 20}}, 100},
		{"unordered input", []span{{Start: 180, End: 190}, {Start: 100, End: 110}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAttributeSplitsASearchIntoLayers(t *testing.T) {
	spans := []span{
		{ID: 0, Req: 5, Parent: -1, Name: spanValidate, Start: 0, End: 2000},
		{ID: 1, Req: 5, Parent: -1, Name: spanSearch, Start: 10000, End: 110000},
		{ID: 2, Req: 5, Parent: 1, Name: spanQuery, Start: 13000, End: 43000},
		{ID: 3, Req: 5, Parent: 1, Name: spanGetBatch, Start: 50000, End: 70000, Count: 7},
		{ID: 4, Req: 5, Parent: 1, Name: spanGetBatch, Start: 60000, End: 80000, Count: 3},
		{ID: 5, Req: 5, Parent: -1, Name: spanRank, Start: 120000, End: 121000},
		{ID: 6, Req: 5, Parent: -1, Name: spanReach, Start: 130000, End: 134000, Count: 12},
		{ID: 7, Req: 6, Parent: -1, Name: spanStep, Start: 140000, End: 150000},
	}
	per := attribute(spans)
	if len(per) != 1 {
		t.Fatalf("%d searches attributed, want 1 (the step is not a search)", len(per))
	}
	want := searchLayers{validate: 2, search: 100, query: 30, getbatch: 30, self: 38, rank: 1, reach: 4,
		getbatchCalls: 2, objectsFetched: 10, reachKeys: 12}
	if per[0] != want {
		t.Errorf("attributed %+v, want %+v", per[0], want)
	}
	if sum := per[0].validate + per[0].query + per[0].self + per[0].getbatch; sum != per[0].search {
		t.Errorf("layers sum to %v, search is %v", sum, per[0].search)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.07}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	noisy := []float64{80, 125, 90, 115, 100, 130, 75, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"inside the bound", steady, []float64{104, 105}, lower, verdictUnchanged},
		{"slower than the bound", steady, []float64{112, 113}, lower, verdictRegression},
		{"faster than the bound", steady, []float64{80, 81}, lower, verdictImproved},
		{"throughput down", steady, []float64{90, 91}, higher, verdictRegression},
		{"throughput up is not a regression", steady, []float64{120}, higher, verdictImproved},
		{"A/A spread wider than the bound", noisy, []float64{104}, lower, verdictUnresolved},
		{"a regression shows through noise", noisy, []float64{150}, lower, verdictRegression},
		{"one run has no spread", []float64{100}, []float64{104}, lower, verdictUnchanged},
	} {
		if got, _, _ := judge(c.a, c.b, c.def); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code that fills it in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the code has %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	listed := map[string]bool{}
	for _, d := range spec.PerLayer {
		listed[d.Name] = true
	}
	for name := range scrapeLayers(promDelta{}, loadResult{attempted: 1}) {
		if !listed[name] {
			t.Errorf("scraped metric %s is not in BENCHMARK.json", name)
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, d := range layerBounds {
		if !listed[d.Name] {
			t.Errorf("%s is judged by compare but not listed per layer", d.Name)
		}
	}
}

func TestPreconditions(t *testing.T) {
	ok := metrics{}
	ok.set("rcache.hit_ratio", 0.97, "ratio")
	if v := preconditions(pointHot, ok); len(v) != 0 {
		t.Errorf("healthy point_hot violates %v", v)
	}
	ok.set("rcache.hit_ratio", 0.5, "ratio")
	if v := preconditions(pointHot, ok); len(v) != 1 {
		t.Errorf("point_hot below its hit ratio reports %v", v)
	}
	em := metrics{}
	em.set("aindex.promotions", 30, "count")
	em.set("wal.appends", 12, "count")
	em.set("rcache.epoch_mismatches", 0, "count")
	if v := preconditions(exploreMutate, em); len(v) != 2 {
		t.Errorf("explore_mutate with too few appends and no mismatches reports %v", v)
	}
	if v := preconditions(clusterKeyed, metrics{}); len(v) != 1 {
		t.Errorf("cluster_keyed without scatter reports %v", v)
	}
}

func TestWindowedDropsADisturbedWindow(t *testing.T) {
	// Five 1 s windows at 1,000 searches each, except a disturbed third
	// window that completes 100 slow ones and burns the same CPU.
	var l loadResult
	for k := 0; k < 5; k++ {
		n, ms := 1000, 1.0
		if k == 2 {
			n, ms = 100, 9.0
		}
		for i := 0; i < n; i++ {
			lat := ms
			if i%100 == 99 { // the slowest 1% of every window
				lat = 5 * ms
			}
			l.samples = append(l.samples, sample{at: float64(k) + float64(i)/float64(n), ms: lat, kind: reqSearch})
		}
	}
	// A request that completes after the last whole second is in no window.
	l.samples = append(l.samples, sample{at: 5.2, ms: 50, kind: reqSearch})
	cpuAt := []float64{0, 1.5, 3, 4.5, 6, 7.5}
	w := windowed(l, cpuAt)
	if w.windows != 5 || w.searches != 4100 || w.steps != 0 {
		t.Fatalf("windows %d, searches %d, steps %d; want 5, 4100, 0", w.windows, w.searches, w.steps)
	}
	if w.opsPerS != 1000 || w.p50 != 1 || w.p90 != 1 || w.cpuMSPerOp != 1.5 {
		t.Errorf("ops/s %v, p50 %v, cpu/op %v; want the undisturbed windows' 1000, 1, 1.5", w.opsPerS, w.p50, w.cpuMSPerOp)
	}
	// 4,100 latencies in 5 s: a tail window is 2 s wide, so there are two,
	// [0,2) clean and [2,4) holding the disturbance.
	if w.tailWindows != 2 {
		t.Errorf("%d tail windows, want 2", w.tailWindows)
	}
	if w.stepP50 != 0 || w.stepP99 != 0 {
		t.Errorf("step latencies %v/%v without a step", w.stepP50, w.stepP99)
	}
	// Fewer latencies than a tail needs: one window, the whole phase.
	few := loadResult{samples: l.samples[:500]}
	if p99, n := tail(few, reqSearch, 500, 5); n != 1 || p99 != 1 {
		t.Errorf("tail of 500 = %v over %d windows, want 1 over 1", p99, n)
	}
	if windowed(l, []float64{0}).windows != 0 {
		t.Error("a phase shorter than a second has a window")
	}
}
