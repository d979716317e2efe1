package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"quepa/internal/collector"
	"quepa/internal/core"
	"quepa/internal/middleware"
	"quepa/internal/wal"
	"quepa/internal/workload"
)

// This file measures the durability subsystem's reason to exist: after a
// crash, reopening the data directory (checkpoint load + log-tail replay)
// must be far cheaper than re-running the collector over the polystore. The
// sweep rebuilds the index both ways at each scale:
//
//	"recollect" — full collector pipeline over the scanned objects
//	              (blocking, pairwise scoring, dedupe, bulk load), the only
//	              option without durability;
//	"recover"   — wal.Open on a directory holding a checkpoint plus a
//	              replayable log tail, as left behind by a crash.

// recoveryTailBatches is how many journaled mutations are left un-checkpointed
// before the simulated crash, so recovery exercises both the checkpoint load
// and a non-trivial log-tail replay.
const recoveryTailBatches = 64

// FigRecovery regenerates the recovery-vs-recollection sweep. X is the
// scanned object count; Size is the number of index edges after the rebuild,
// which must agree between the series (the run fails if recovery reproduces
// a different index than re-collection).
func FigRecovery(o Options) ([]Point, error) {
	o = o.withDefaults()
	ctx := context.Background()
	var points []Point
	for _, scale := range o.buildScales() {
		spec := workload.DefaultSpec().Scale(scale)
		spec.Seed = o.Seed
		built, err := workload.Build(spec, workload.Colocated())
		if err != nil {
			return nil, err
		}
		var objects []core.Object
		for _, name := range built.Databases() {
			s, err := built.Poly.Database(name)
			if err != nil {
				return nil, err
			}
			objs, err := middleware.ScanAll(ctx, s)
			if err != nil {
				return nil, err
			}
			objects = append(objects, objs...)
		}

		cfg := collector.DefaultConfig()
		cfg.IdentityThreshold, cfg.MatchingThreshold = 0.55, 0.30
		coll, err := collector.New(cfg)
		if err != nil {
			return nil, err
		}

		// Series 1: full re-collection, timed end to end.
		start := time.Now()
		ix, _, _, err := coll.BuildIndexWithStats(ctx, objects)
		recollect := time.Since(start)
		if err != nil {
			return nil, err
		}
		edges := ix.Edges()
		points = append(points, Point{
			Figure: "recovery", Series: "recollect", XLabel: "objects",
			X: float64(len(objects)), Millis: ms(recollect), Size: len(edges),
		})

		// Crash fixture: seed a data dir with the built index, apply a tail
		// of journaled mutations past the checkpoint, and abort without the
		// shutdown checkpoint — the state a SIGKILL leaves behind.
		dir, err := os.MkdirTemp("", "quepa-bench-recovery-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		m, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOff})
		if err != nil {
			return nil, err
		}
		if err := m.Seed(ix); err != nil {
			return nil, err
		}
		for i := 0; i < recoveryTailBatches; i++ {
			rel := core.NewIdentity(
				core.NewGlobalKey("benchdb", "tail", fmt.Sprintf("a%d", i)),
				core.NewGlobalKey("benchdb2", "tail", fmt.Sprintf("b%d", i)),
				0.9)
			if err := ix.Insert(rel); err != nil {
				return nil, err
			}
		}
		wantEdges := ix.Edges()
		m.Abort()

		// Series 2: crash recovery — checkpoint load plus tail replay.
		start = time.Now()
		m2, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOff})
		recover := time.Since(start)
		if err != nil {
			return nil, err
		}
		if !m2.Recovered() {
			return nil, fmt.Errorf("bench recovery: reopen did not recover")
		}
		gotEdges := m2.Index().Edges()
		m2.Abort() // leave no extra checkpoint work in the timing's shadow
		if !equalRels(gotEdges, wantEdges) {
			return nil, fmt.Errorf("bench recovery: recovered %d edges, pre-crash index had %d",
				len(gotEdges), len(wantEdges))
		}
		points = append(points, Point{
			Figure: "recovery", Series: "recover", XLabel: "objects",
			X: float64(len(objects)), Millis: ms(recover), Size: len(gotEdges),
		})
	}
	return points, nil
}
