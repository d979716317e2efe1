// Command quepa-loadgen generates the Polyphony polystore of the paper's
// evaluation (Section VII-A) and prints its statistics: the databases, their
// object counts and collections, and the size of the A' index built over
// them.
//
// Usage:
//
//	quepa-loadgen -replicas 2 -scale 1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"quepa/internal/middleware"
	"quepa/internal/workload"
)

func main() {
	replicas := flag.Int("replicas", 0, "replication rounds (0 -> 4 databases, 3 -> 13)")
	scale := flag.Float64("scale", 1, "workload scale factor")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()

	spec := workload.DefaultSpec().Scale(*scale)
	spec.ReplicaRounds = *replicas
	spec.Seed = *seed
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Polyphony polystore (seed %d, scale %g):\n", *seed, *scale)
	fmt.Printf("  %-16s %d\n", "databases:", built.Poly.Size())
	for _, name := range built.Databases() {
		s, err := built.Poly.Database(name)
		if err != nil {
			log.Fatal(err)
		}
		objs, err := middleware.ScanAll(context.Background(), s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    %-20s %-11s %6d objects in %v\n", name, s.Kind(), len(objs), s.Collections())
	}
	fmt.Printf("  %-16s %d global keys, %d p-relations\n", "A' index:", built.Index.NodeCount(), built.Index.EdgeCount())
}
