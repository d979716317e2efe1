package bench

import (
	"strings"
	"testing"
)

// quick runs every figure at Quick scale: these are correctness smoke tests
// of the harness itself; the full-scale numbers come from the repository's
// top-level benchmarks.
func quick() Options { return Options{Quick: true, Seed: 3} }

func checkPoints(t *testing.T, points []Point, figures ...string) {
	t.Helper()
	if len(points) == 0 {
		t.Fatal("no points")
	}
	seen := map[string]bool{}
	for _, p := range points {
		seen[p.Figure] = true
		if p.Series == "" || p.XLabel == "" {
			t.Errorf("incomplete point %+v", p)
		}
		if !p.OOM && p.Millis < 0 {
			t.Errorf("negative time %+v", p)
		}
	}
	for _, f := range figures {
		if !seen[f] {
			t.Errorf("figure %s missing from points", f)
		}
	}
}

func TestFig9(t *testing.T) {
	points, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "9a", "9b")
	// Both series present.
	series := map[string]bool{}
	for _, p := range points {
		series[p.Series] = true
	}
	if !series["BATCH"] || !series["OUTER-BATCH"] {
		t.Errorf("series = %v", series)
	}
}

func TestFig10ab(t *testing.T) {
	points, err := Fig10ab(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "10a", "10b")
	// The sequential series is flat.
	var seq []Point
	for _, p := range points {
		if p.Figure == "10a" && p.Series == "SEQUENTIAL" {
			seq = append(seq, p)
		}
	}
	if len(seq) < 2 {
		t.Fatal("sequential series missing")
	}
	for _, p := range seq[1:] {
		if p.Millis != seq[0].Millis {
			t.Errorf("sequential series not flat: %v vs %v", p.Millis, seq[0].Millis)
		}
	}
}

func TestFig10cd(t *testing.T) {
	points, err := Fig10cd(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "10c", "10d")
}

func TestFig11ab(t *testing.T) {
	points, err := Fig11ab(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "11a", "11b")
}

func TestFig11cd(t *testing.T) {
	points, err := Fig11cd(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "11c", "11d")
	// All six augmenters appear.
	series := map[string]bool{}
	for _, p := range points {
		series[p.Series] = true
	}
	if len(series) != 6 {
		t.Errorf("series = %v, want all six augmenters", series)
	}
}

func TestFig11ef(t *testing.T) {
	points, err := Fig11ef(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "11e", "11f")
}

func TestFig12(t *testing.T) {
	points, err := Fig12(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "12a", "12b")
	// Win counts sum to the number of groups per variant; top-5 >= top-1.
	var top1, top5 float64
	for _, p := range points {
		if p.Figure == "12b" && p.Series == "top-1" {
			top1 = p.Millis
		}
		if p.Figure == "12b" && p.Series == "top-5" {
			top5 = p.Millis
		}
	}
	if top5 < top1 {
		t.Errorf("top-5 (%g) < top-1 (%g)", top5, top1)
	}
}

func TestFig13ab(t *testing.T) {
	points, err := Fig13ab(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "13a", "13b")
	series := map[string]bool{}
	for _, p := range points {
		series[p.Series] = true
	}
	for _, want := range []string{"QUEPA", "META-NAT", "META-AUG", "TALEND", "ARANGO-NAT", "ARANGO-AUG"} {
		if !series[want] {
			t.Errorf("missing system %s", want)
		}
	}
}

func TestFig13cd(t *testing.T) {
	points, err := Fig13cd(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "13c", "13d")
}

func TestRunDispatch(t *testing.T) {
	for _, id := range FigureNames() {
		if id == "12" || strings.HasPrefix(id, "13") {
			continue // exercised above; skip the slow ones here
		}
		points, err := Run(id, quick())
		if err != nil {
			t.Errorf("Run(%s): %v", id, err)
		}
		if len(points) == 0 {
			t.Errorf("Run(%s) returned no points", id)
		}
	}
	// Unknown ids — the retired A/B figures included — fail with the list of
	// the surviving names.
	for _, id := range []string{"nope", "cluster", "rcache", "wire"} {
		_, err := Run(id, quick())
		if err == nil {
			t.Errorf("Run(%s) should fail as an unknown figure", id)
			continue
		}
		for _, name := range FigureNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Run(%s) error %q does not list figure %s", id, err, name)
			}
		}
	}
}

func TestReport(t *testing.T) {
	points := []Point{
		{Figure: "9a", Series: "BATCH", XLabel: "BATCH_SIZE", X: 10, Millis: 1.5, Size: 100},
		{Figure: "9a", Series: "BATCH", XLabel: "BATCH_SIZE", X: 100, OOM: true},
	}
	var sb strings.Builder
	Report(&sb, points)
	out := sb.String()
	if !strings.Contains(out, "Fig. 9a") || !strings.Contains(out, "X (OOM)") || !strings.Contains(out, "BATCH_SIZE") {
		t.Errorf("report = %q", out)
	}
	Report(&sb, nil) // no panic on empty
}

func TestExtraCache(t *testing.T) {
	points, err := ExtraCache(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(quick().cacheSizes()) {
		t.Errorf("points = %d", len(points))
	}
}

func TestExtraAblation(t *testing.T) {
	points, err := ExtraAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	var matEdges, rawEdges, matReach, rawReach float64
	for _, p := range points {
		switch p.Series {
		case "materialized edges":
			matEdges = p.Millis
		case "raw edges":
			rawEdges = p.Millis
		case "materialized level-0 reach":
			matReach = p.Millis
		case "raw level-0 reach":
			rawReach = p.Millis
		}
	}
	// Materialization must add edges and must reach at least as many
	// objects at level 0 — that is the design's whole point.
	if matEdges <= rawEdges {
		t.Errorf("materialized edges %g <= raw %g", matEdges, rawEdges)
	}
	if matReach < rawReach {
		t.Errorf("materialized reach %g < raw %g", matReach, rawReach)
	}
}

func TestFigRecovery(t *testing.T) {
	points, err := FigRecovery(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, points, "recovery")
	series := map[string]Point{}
	for _, p := range points {
		series[p.Series] = p
	}
	for _, s := range []string{"recollect", "recover"} {
		if _, ok := series[s]; !ok {
			t.Fatalf("series %q missing from points %v", s, points)
		}
	}
	if len(series) != 2 {
		t.Errorf("recovery has series %v, want exactly recollect and recover", series)
	}
}
