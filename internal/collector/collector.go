package collector

import (
	"context"
	"fmt"
	"sort"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/core"
)

// Config parameterizes the collector.
type Config struct {
	// IdentityThreshold: pairs scoring at or above it become identity
	// p-relations (the paper's experiments use 0.9).
	IdentityThreshold float64
	// MatchingThreshold: pairs scoring in [MatchingThreshold,
	// IdentityThreshold) become matching p-relations (the paper uses 0.6).
	MatchingThreshold float64
	// MaxBlockSize discards blocks larger than this (tokens too frequent to
	// be discriminating, BLAST-style); default 64.
	MaxBlockSize int
	// Comparators and Weights define the scoring ensemble. Nil selects the
	// default ensemble with uniform weights.
	Comparators []Comparator
	Weights     []float64
	// Workers is the number of goroutines scoring candidate pairs (0 selects
	// GOMAXPROCS, 1 forces a sequential run). The worker count never changes
	// the output — only the wall time.
	Workers int
	// Progress, when non-nil, is called as scored blocks complete, at most
	// once per decile of the total pair count, with the number of blocks
	// fully scored so far and the total. Calls are serialized but may come
	// from scoring goroutines.
	Progress func(done, total int)
}

// DefaultConfig mirrors the paper's thresholds.
func DefaultConfig() Config {
	return Config{IdentityThreshold: 0.9, MatchingThreshold: 0.6, MaxBlockSize: 64}
}

func (c Config) withDefaults() (Config, error) {
	if c.IdentityThreshold <= 0 || c.IdentityThreshold > 1 {
		return c, fmt.Errorf("collector: identity threshold %g outside (0, 1]", c.IdentityThreshold)
	}
	if c.MatchingThreshold <= 0 || c.MatchingThreshold >= c.IdentityThreshold {
		return c, fmt.Errorf("collector: matching threshold %g must be in (0, %g)", c.MatchingThreshold, c.IdentityThreshold)
	}
	if c.MaxBlockSize <= 0 {
		c.MaxBlockSize = 64
	}
	if len(c.Comparators) == 0 {
		c.Comparators = []Comparator{TokenJaccard{}, FieldOverlap{}, Levenshtein{}, NumericProximity{}}
	}
	if len(c.Weights) == 0 {
		c.Weights = make([]float64, len(c.Comparators))
		for i := range c.Weights {
			c.Weights[i] = 1
		}
	}
	if len(c.Weights) != len(c.Comparators) {
		return c, fmt.Errorf("collector: %d weights for %d comparators", len(c.Weights), len(c.Comparators))
	}
	return c, nil
}

// Collector discovers p-relations between data objects.
type Collector struct {
	cfg Config
}

// New creates a collector. Invalid configurations are rejected.
func New(cfg Config) (*Collector, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Collector{cfg: cfg}, nil
}

// Score computes the weighted ensemble similarity of two objects in [0, 1].
func (c *Collector) Score(a, b core.Object) float64 {
	var sum, wsum float64
	for i, cmp := range c.cfg.Comparators {
		w := c.cfg.Weights[i]
		if w == 0 {
			continue
		}
		sum += w * cmp.Compare(a, b)
		wsum += w
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// Blocks partitions objects into candidate blocks: objects sharing a token
// land in the same block; blocks exceeding MaxBlockSize are dropped as
// non-discriminating (frequency-based stop tokens). The result maps each
// blocking token to the indexes of its objects, in deterministic order.
func (c *Collector) Blocks(objects []core.Object) map[string][]int {
	blocks, _ := c.blocks(objects)
	return blocks
}

// blocks is Blocks plus a count of the oversized blocks dropped (the
// telemetry and build stats distinguish them from the sub-2-member blocks,
// which carry no candidate pairs to lose).
func (c *Collector) blocks(objects []core.Object) (map[string][]int, int) {
	byToken := map[string][]int{}
	for i, o := range objects {
		seen := map[string]bool{}
		for tok := range tokenSet(o) {
			if !seen[tok] {
				seen[tok] = true
				byToken[tok] = append(byToken[tok], i)
			}
		}
	}
	dropped := 0
	for tok, members := range byToken {
		if len(members) > c.cfg.MaxBlockSize {
			dropped++
			delete(byToken, tok)
			continue
		}
		if len(members) < 2 {
			delete(byToken, tok)
			continue
		}
		sort.Ints(members)
	}
	return byToken, dropped
}

// Run executes the full pipeline — blocking, pairwise matching,
// thresholding and local deduplication — and returns the discovered
// p-relations, deterministically ordered. Scoring is spread over
// Config.Workers goroutines; the output is identical for every worker
// count.
func (c *Collector) Run(ctx context.Context, objects []core.Object) ([]core.PRelation, error) {
	rels, _, err := c.RunWithStats(ctx, objects)
	return rels, err
}

func clampProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	return p
}

// claimBeats is the deduplication winner order: higher probability first,
// ties broken by the canonical (direction-normalized) endpoint pair. The
// order is total over distinct relations, which makes dedupeIdentities a pure
// function of the relation SET — independent of input order — so no tie is
// ever decided by which claim happened to be scored first.
func claimBeats(a, b core.PRelation) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	alo, ahi := normPair(a)
	blo, bhi := normPair(b)
	if c := alo.Compare(blo); c != 0 {
		return c < 0
	}
	return ahi.Compare(bhi) < 0
}

// normPair returns the relation's endpoints in canonical order.
func normPair(r core.PRelation) (core.GlobalKey, core.GlobalKey) {
	if r.From.Compare(r.To) <= 0 {
		return r.From, r.To
	}
	return r.To, r.From
}

// dedupeIdentities enforces the paper's rule: "two different data objects
// belonging to the same dataset cannot participate to an identity p-relation
// with the same object in a different database" (deduplication is a local
// responsibility). When several objects of one dataset claim identity with
// the same foreign object, only the highest-probability relation survives;
// the losers are dropped entirely, as the paper keeps "the p-relations with
// higher probability only".
func (c *Collector) dedupeIdentities(rels []core.PRelation) []core.PRelation {
	// Group identity claims by (foreign object, claiming dataset).
	type claimKey struct {
		object  core.GlobalKey
		dataset string // database.collection of the claiming side
	}
	best := map[claimKey]core.PRelation{}
	keep := make([]core.PRelation, 0, len(rels))
	for _, r := range rels {
		if r.Type != core.Identity {
			keep = append(keep, r)
			continue
		}
		for _, dir := range [2][2]core.GlobalKey{{r.From, r.To}, {r.To, r.From}} {
			claimer, object := dir[0], dir[1]
			if claimer.Database == object.Database {
				continue // rule applies across databases only
			}
			k := claimKey{object: object, dataset: claimer.Database + "." + claimer.Collection}
			old, ok := best[k]
			if !ok || claimBeats(r, old) {
				best[k] = r
			}
		}
	}
	surviving := func(r core.PRelation) bool {
		for _, dir := range [2][2]core.GlobalKey{{r.From, r.To}, {r.To, r.From}} {
			claimer, object := dir[0], dir[1]
			if claimer.Database == object.Database {
				continue
			}
			k := claimKey{object: object, dataset: claimer.Database + "." + claimer.Collection}
			if winner, ok := best[k]; ok && winner != r {
				return false
			}
		}
		return true
	}
	for _, r := range rels {
		if r.Type == core.Identity && !surviving(r) {
			continue
		}
		if r.Type == core.Identity {
			keep = append(keep, r)
		}
	}
	return keep
}

// BuildIndex runs the pipeline and loads the result into a fresh A' index
// with aindex.BulkLoad: the relations' ordered Insert replay into an index
// no reader sees yet, with no lock taken per relation.
func (c *Collector) BuildIndex(ctx context.Context, objects []core.Object) (*aindex.Index, []core.PRelation, error) {
	ix, rels, _, err := c.BuildIndexWithStats(ctx, objects)
	return ix, rels, err
}

// BuildIndexWithStats is BuildIndex plus a summary of the build work.
// Elapsed covers the whole build, bulk load included.
func (c *Collector) BuildIndexWithStats(ctx context.Context, objects []core.Object) (*aindex.Index, []core.PRelation, BuildStats, error) {
	start := time.Now()
	rels, stats, err := c.RunWithStats(ctx, objects)
	if err != nil {
		return nil, nil, stats, err
	}
	ix, err := aindex.BulkLoad(rels)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("collector: bulk load: %w", err)
	}
	stats.Elapsed = time.Since(start)
	return ix, rels, stats, nil
}
