package bench

// Baseline comparison: the bench-regression CI job runs a small fixed figure
// with -json and diffs it against the committed BENCH_<label>.json baseline.
// Points are matched on their identity (figure, series, x-label, x) so the
// check survives reordering and added figures; a point only fails the build
// when it is slower than the baseline by more than the tolerance AND by more
// than the noise floor — sub-millisecond jitter on a busy CI runner is not a
// regression.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// NoiseFloorMS is the absolute slowdown below which a point can never count
// as regressed, whatever the ratio says. CI runners jitter by a couple of
// milliseconds; a 0.5ms -> 1.2ms "140% regression" is measurement noise.
const NoiseFloorMS = 2.0

// Delta is one matched point pair.
type Delta struct {
	Figure    string  `json:"figure"`
	Series    string  `json:"series"`
	XLabel    string  `json:"x_label"`
	X         float64 `json:"x"`
	OldMS     float64 `json:"old_ms"`
	NewMS     float64 `json:"new_ms"`
	Ratio     float64 `json:"ratio"` // new/old; +Inf when old is 0
	Regressed bool    `json:"regressed"`
}

// Comparison is the outcome of diffing a new campaign against a baseline.
type Comparison struct {
	OldLabel  string  `json:"old_label"`
	NewLabel  string  `json:"new_label"`
	Tolerance float64 `json:"tolerance"`
	Deltas    []Delta `json:"deltas"`
	// OnlyOld counts baseline points with no counterpart in the new record
	// (e.g. the new run measured fewer figures); OnlyNew the reverse. Neither
	// fails the comparison, but both are reported — silent coverage loss
	// would make the guard meaningless.
	OnlyOld int `json:"only_old"`
	OnlyNew int `json:"only_new"`
	// SkippedOOM counts pairs left out because either side died out of
	// memory: an OOM point has no meaningful duration.
	SkippedOOM int `json:"skipped_oom"`
}

// pointKey identifies a measured point across runs.
type pointKey struct {
	figure, series, xLabel string
	x                      float64
}

// ReadRecord decodes a RunRecord and verifies its schema.
func ReadRecord(r io.Reader) (*RunRecord, error) {
	var rec RunRecord
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("bench: decoding run record: %w", err)
	}
	if rec.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: run record schema %q, want %q", rec.Schema, SchemaVersion)
	}
	return &rec, nil
}

// ReadRecordFile reads a RunRecord from a file.
func ReadRecordFile(path string) (*RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, err := ReadRecord(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// EnvironmentMismatch describes how the two records' measurement
// environments differ — Go toolchain or scheduler parallelism — and returns
// "" when they match (or when either side predates the fields). It never
// refuses the diff: a cross-environment comparison is sometimes all there
// is, but the reader must know the deltas may be the machine, not the code.
func EnvironmentMismatch(old, cur *RunRecord) string {
	var diffs []string
	if old.GoVersion != "" && cur.GoVersion != "" && old.GoVersion != cur.GoVersion {
		diffs = append(diffs, fmt.Sprintf("Go toolchain %s (baseline) vs %s (new)", old.GoVersion, cur.GoVersion))
	}
	if old.GoMaxProcs != 0 && cur.GoMaxProcs != 0 && old.GoMaxProcs != cur.GoMaxProcs {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d (baseline) vs %d (new)", old.GoMaxProcs, cur.GoMaxProcs))
	}
	if len(diffs) == 0 {
		return ""
	}
	return "the records were measured in different environments: " + strings.Join(diffs, "; ") +
		" — time deltas may reflect the machine, not the code"
}

// Compare matches the new record's points against the baseline and flags
// every pair that slowed down by more than tolerance (a fraction: 0.30 allows
// +30%) and by more than NoiseFloorMS.
func Compare(old, cur *RunRecord, tolerance float64) Comparison {
	c := Comparison{OldLabel: old.Label, NewLabel: cur.Label, Tolerance: tolerance}
	baseline := map[pointKey]Point{}
	for _, p := range old.Points {
		baseline[key(p)] = p
	}
	matched := map[pointKey]bool{}
	for _, p := range cur.Points {
		k := key(p)
		b, ok := baseline[k]
		if !ok {
			c.OnlyNew++
			continue
		}
		matched[k] = true
		if p.OOM || b.OOM {
			c.SkippedOOM++
			continue
		}
		d := Delta{
			Figure: p.Figure, Series: p.Series, XLabel: p.XLabel, X: p.X,
			OldMS: b.Millis, NewMS: p.Millis,
		}
		if b.Millis > 0 {
			d.Ratio = p.Millis / b.Millis
		} else if p.Millis > 0 {
			d.Ratio = math.Inf(1)
		} else {
			d.Ratio = 1
		}
		d.Regressed = d.Ratio > 1+tolerance && p.Millis-b.Millis > NoiseFloorMS
		c.Deltas = append(c.Deltas, d)
	}
	c.OnlyOld = len(baseline) - len(matched)
	sort.Slice(c.Deltas, func(i, j int) bool {
		a, b := c.Deltas[i], c.Deltas[j]
		if a.Figure != b.Figure {
			return a.Figure < b.Figure
		}
		if a.Series != b.Series {
			return a.Series < b.Series
		}
		return a.X < b.X
	})
	return c
}

func key(p Point) pointKey {
	return pointKey{figure: p.Figure, series: p.Series, xLabel: p.XLabel, x: p.X}
}

// BestOf merges repeated runs of the same campaign, keeping each point's
// fastest live measurement (quepa-bench -best-of). One-shot wall-clock points
// carry scheduler noise that only adds time, so the minimum is the stable
// estimator a regression guard wants. Point order follows the first run; an
// OOM survives only if every repeat OOMed too.
func BestOf(runs ...[]Point) []Point {
	if len(runs) == 0 {
		return nil
	}
	out := append([]Point(nil), runs[0]...)
	index := map[pointKey]int{}
	for i, p := range out {
		index[key(p)] = i
	}
	for _, run := range runs[1:] {
		for _, p := range run {
			i, ok := index[key(p)]
			if !ok {
				index[key(p)] = len(out)
				out = append(out, p)
				continue
			}
			best := &out[i]
			switch {
			case best.OOM && !p.OOM:
				*best = p
			case !best.OOM && !p.OOM && p.Millis < best.Millis:
				*best = p
			}
		}
	}
	return out
}

// Regressions returns the deltas that exceed the tolerance.
func (c Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// WriteMarkdown renders the comparison as a GitHub-flavored table — the CI
// job appends it to $GITHUB_STEP_SUMMARY.
func (c Comparison) WriteMarkdown(w io.Writer) error {
	regressed := len(c.Regressions())
	verdict := "✅ no regressions"
	if regressed > 0 {
		verdict = fmt.Sprintf("❌ %d point(s) regressed", regressed)
	}
	if _, err := fmt.Fprintf(w, "### Bench regression check: %s vs %s — %s (tolerance +%.0f%%, noise floor %gms)\n\n",
		c.NewLabel, c.OldLabel, verdict, c.Tolerance*100, NoiseFloorMS); err != nil {
		return err
	}
	fmt.Fprintln(w, "| figure | series | x | old ms | new ms | Δ | |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---|")
	for _, d := range c.Deltas {
		mark := ""
		if d.Regressed {
			mark = "❌"
		}
		fmt.Fprintf(w, "| %s | %s | %s=%g | %.3f | %.3f | %+.1f%% | %s |\n",
			d.Figure, d.Series, d.XLabel, d.X, d.OldMS, d.NewMS, (d.Ratio-1)*100, mark)
	}
	if c.OnlyOld > 0 || c.OnlyNew > 0 || c.SkippedOOM > 0 {
		fmt.Fprintf(w, "\n_%d baseline point(s) unmatched, %d new point(s) unmatched, %d OOM pair(s) skipped._\n",
			c.OnlyOld, c.OnlyNew, c.SkippedOOM)
	}
	return nil
}
