package bench

import (
	"os"
	"testing"
)

// TestFigClusterScaling: the cluster figure's reason to exist — with the
// per-peer capacity gate bounding service throughput, adding peers must
// shorten the fixed-op sweep. The margin is generous (the ideal 1→2 peer
// ratio is ~2×), yet on a shared 2-vCPU box it still lost one run in three,
// so the comparison of the two wall-clock readings runs only behind
// QUEPA_CLUSTER_SCALING (make cluster sets it), as TestTraceOverheadGuard's
// does behind QUEPA_TRACE_GUARD. The deterministic half — the sweep runs,
// every scattered answer is verified against the single-node index before
// timing, every peer count reports a point — stays in tier-1.
func TestFigClusterScaling(t *testing.T) {
	points, err := FigCluster(quick())
	if err != nil {
		t.Fatal(err)
	}
	millis := map[float64]float64{}
	for _, p := range points {
		if p.Figure != "cluster" || p.Millis <= 0 {
			t.Fatalf("malformed cluster point %+v", p)
		}
		millis[p.X] = p.Millis
	}
	one, ok1 := millis[1]
	two, ok2 := millis[2]
	if !ok1 || !ok2 {
		t.Fatalf("sweep missing peer counts: %+v", points)
	}
	if os.Getenv("QUEPA_CLUSTER_SCALING") == "" {
		t.Log("set QUEPA_CLUSTER_SCALING=1 (make cluster) to assert the 1→2 peer wall-clock ratio")
		return
	}
	if one < 1.25*two {
		t.Errorf("no throughput scaling: 1 peer %.1fms vs 2 peers %.1fms", one, two)
	}
}
