package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"quepa/internal/explain"
	"quepa/internal/telemetry"
)

// RunRecord is the machine-readable form of a benchmark campaign, written by
// quepa-bench -json. One file per PR (BENCH_<label>.json at the repo root)
// gives the series a comparable baseline across the stacked PRs: same
// schema, same figures, same seed — any drift between two files is a real
// performance change, not a harness change.
type RunRecord struct {
	Schema    string `json:"schema"` // bumped only on incompatible layout changes
	Label     string `json:"label"`  // e.g. "PR1"
	GoVersion string `json:"go_version"`
	// GoMaxProcs records the scheduler parallelism the campaign ran under.
	// Millisecond baselines from a 2-core CI runner and a 16-core laptop are
	// not comparable; -compare warns loudly when the environments differ
	// (absent in pre-PR10 baselines, which compare without the warning).
	GoMaxProcs int       `json:"go_max_procs,omitempty"`
	Timestamp  time.Time `json:"timestamp"`
	Seed       int64     `json:"seed"`
	Quick      bool      `json:"quick"`
	Figures    []string  `json:"figures"`
	Points     []Point   `json:"points"`
	// Profiles holds the EXPLAIN profiles sampled during the campaign when
	// quepa-bench ran with -explain-sample (absent otherwise).
	Profiles []*explain.Profile `json:"profiles,omitempty"`
	// Traces holds the tail-sampling decision counters of the campaign's
	// tracer — how many root spans were seen, how many were kept and why —
	// when any tracing happened (absent otherwise). The -compare guard
	// ignores it; it documents the observability cost of the run.
	Traces *telemetry.SamplingStats `json:"traces,omitempty"`
}

// SchemaVersion identifies the RunRecord layout.
const SchemaVersion = "quepa-bench/1"

// WriteJSON renders a campaign as an indented RunRecord.
func WriteJSON(w io.Writer, label string, opts Options, figures []string, points []Point) error {
	rec := RunRecord{
		Schema:     SchemaVersion,
		Label:      label,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Truncate(time.Second),
		Seed:       opts.withDefaults().Seed,
		Quick:      opts.Quick,
		Figures:    figures,
		Points:     points,
		Profiles:   ExplainProfiles(),
	}
	if st := telemetry.DefaultTracer().SamplingStats(); st.Seen > 0 {
		rec.Traces = &st
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
