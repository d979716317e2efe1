// Command quepa-collect builds an A' index from the raw contents of a
// generated polystore using the record-linkage Collector (Section III-D),
// then evaluates the discovered p-relations against the workload's ground
// truth (the index the generator itself produced).
//
// Usage:
//
//	quepa-collect -scale 0.2 -identity 0.55 -matching 0.3
//	quepa-collect -workers 8 -v   # parallel scoring with progress deciles
//	quepa-collect -data-dir /var/lib/quepa   # seed a durable dir for quepa-server
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/collector"
	"quepa/internal/core"
	"quepa/internal/middleware"
	"quepa/internal/wal"
	"quepa/internal/workload"
)

func main() {
	scale := flag.Float64("scale", 0.1, "workload scale factor")
	seed := flag.Int64("seed", 1, "generation seed")
	identity := flag.Float64("identity", 0.55, "identity threshold")
	matching := flag.Float64("matching", 0.30, "matching threshold")
	maxBlock := flag.Int("maxblock", 64, "max block size (frequency stop tokens)")
	workers := flag.Int("workers", 0, "scoring goroutines (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print every discovered p-relation")
	out := flag.String("out", "", "write the built A' index to this file as a binary snapshot (what quepa-server -index loads)")
	dataDir := flag.String("data-dir", "",
		"seed a durable data directory with the built index (checkpoint + WAL, as quepa-server -data-dir expects); must be fresh")
	flag.Parse()

	spec := workload.DefaultSpec().Scale(*scale)
	spec.Seed = *seed
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	var objects []core.Object
	for _, name := range built.Databases() {
		s, err := built.Poly.Database(name)
		if err != nil {
			log.Fatal(err)
		}
		objs, err := middleware.ScanAll(ctx, s)
		if err != nil {
			log.Fatal(err)
		}
		objects = append(objects, objs...)
	}
	fmt.Printf("scanned %d objects from %d databases\n", len(objects), built.Poly.Size())

	cfg := collector.DefaultConfig()
	cfg.IdentityThreshold = *identity
	cfg.MatchingThreshold = *matching
	cfg.MaxBlockSize = *maxBlock
	cfg.Workers = *workers
	cfg.Progress = func(done, total int) {
		log.Printf("scored %d/%d blocks (%d%%)", done, total, done*100/total)
	}
	coll, err := collector.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	index, rels, stats, err := coll.BuildIndexWithStats(ctx, objects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered %d p-relations -> index with %d keys, %d edges\n",
		len(rels), index.NodeCount(), index.EdgeCount())
	fmt.Printf("build: %d blocks (%d oversized dropped), %d pairs scored, %d identities + %d matchings, %d workers, %v\n",
		stats.Blocks, stats.DroppedBlocks, stats.PairsScored, stats.Identities, stats.Matchings,
		stats.Workers, stats.Elapsed.Round(time.Millisecond))
	if *verbose {
		for _, r := range rels {
			fmt.Printf("    %v\n", r)
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := aindex.WriteSnapshot(f, index.Edges(), 0); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("index written to %s\n", *out)
	}
	if *dataDir != "" {
		m, err := wal.Open(*dataDir, wal.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if m.Recovered() {
			log.Fatalf("quepa-collect: %s already holds durable state; point -data-dir at a fresh directory", *dataDir)
		}
		// Seed writes the initial checkpoint and opens the first WAL segment;
		// Close syncs both, so the directory is ready for quepa-server.
		if err := m.Seed(index); err != nil {
			log.Fatal(err)
		}
		if err := m.Close(); err != nil {
			log.Fatal(err)
		}
		st := m.Stats()
		fmt.Printf("durable checkpoint written to %s (epoch %d, %d bytes)\n",
			*dataDir, st.CheckpointEpoch, st.CheckpointBytes)
	}

	// Evaluate against the generator's ground-truth index: a discovered
	// relation is a true positive if the ground truth has any p-relation
	// between the same two keys.
	truth := built.Index
	tp := 0
	for _, r := range rels {
		if _, ok := truth.Relation(r.From, r.To); ok {
			tp++
		}
	}
	truthEdges := truth.EdgeCount()
	precision := 0.0
	if len(rels) > 0 {
		precision = float64(tp) / float64(len(rels))
	}
	recall := float64(tp) / float64(truthEdges)
	fmt.Printf("\nagainst the generator's ground truth (%d p-relations):\n", truthEdges)
	fmt.Printf("  true positives: %d\n  precision:      %.3f\n  recall:         %.3f\n", tp, precision, recall)
	fmt.Println("\n(The paper treats linkage quality as out of scope — \"the quality and the")
	fmt.Println("semantics of the generated p-relations are irrelevant to the purpose of")
	fmt.Println("this experimentation\" — the numbers above are for orientation only.)")
}
