package explain

import (
	"fmt"
	"io"
)

// WriteTree pretty-prints the profile as an indented tree — the rendering of
// quepa-explore's `explain` verb. Writing a nil profile prints a placeholder
// so callers can pass a FromSpan result through unconditionally.
func (p *Profile) WriteTree(w io.Writer) {
	if p == nil {
		fmt.Fprintln(w, "(no profile)")
		return
	}
	fmt.Fprintf(w, "%s", p.Route)
	if p.Database != "" {
		fmt.Fprintf(w, " db=%s", p.Database)
	}
	if p.Query != "" {
		fmt.Fprintf(w, " q=%q", p.Query)
	}
	fmt.Fprintf(w, " level=%d\n", p.Level)
	fmt.Fprintf(w, "  wall %.3fms  objects %d  store calls %d (%d errors)  wire %dB sent / %dB received\n",
		p.WallMS, p.Totals.Objects, p.Totals.StoreCalls, p.Totals.StoreErrors,
		p.Totals.BytesSent, p.Totals.BytesReceived)

	if lq := p.LocalQuery; lq != nil {
		fmt.Fprintf(w, "  local query %s: %d objects in %.3fms", lq.Store, lq.Objects, lq.WallMS)
		if lq.Errors > 0 {
			fmt.Fprintf(w, " (%d errors)", lq.Errors)
		}
		fmt.Fprintln(w)
	}

	for _, a := range p.Augmentations {
		fmt.Fprintf(w, "  augment level=%d strategy=%s origins=%d candidates=%d -> %d objects (%.3fms)\n",
			a.Level, a.Strategy, a.Origins, a.CandidateKeys, a.Fetched, a.WallMS)
		fmt.Fprintf(w, "    index nodes=%d edges=%d origins-skipped=%d\n",
			a.IndexNodes, a.IndexEdges, a.OriginsSkipped)
		fmt.Fprintf(w, "    cache %d hits / %d misses\n", a.CacheHits, a.CacheMisses)
		if a.RcacheHits > 0 {
			fmt.Fprintf(w, "    rcache %d hits (outcome served from the result cache)\n", a.RcacheHits)
		}
		for _, f := range a.Stores {
			writeFanout(w, "    ", f)
		}
		if a.Error != "" {
			fmt.Fprintf(w, "    error: %s\n", a.Error)
		}
	}

	for _, f := range p.Fetches {
		writeFanout(w, "  ", f)
	}
	if p.Totals.RankPruned > 0 {
		fmt.Fprintf(w, "  rank pruned %d augmented objects below the presentation threshold\n", p.Totals.RankPruned)
	}
	if p.Totals.RcacheHits > 0 {
		fmt.Fprintf(w, "  rcache %d hits\n", p.Totals.RcacheHits)
	}
}

func writeFanout(w io.Writer, prefix string, f StoreFanout) {
	fmt.Fprintf(w, "%sstore %s %s: calls=%d keys=%d objects=%d errors=%d max-batch=%d %.3fms\n",
		prefix, f.Store, f.Op, f.Calls, f.Keys, f.Objects, f.Errors, f.MaxBatch, f.WallMS)
}
