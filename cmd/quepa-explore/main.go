// Command quepa-explore is an interactive augmented-exploration shell over
// a generated Polyphony polystore: the terminal rendition of the paper's
// click-through interface. A session starts from a native query; the ranked
// links of each step are numbered, and typing a number follows that link.
//
//	$ quepa-explore
//	> q transactions SELECT * FROM sales WHERE seq < 1
//	  [0] transactions.sales.s0 {customer: c0, ...}
//	> 0
//	  [0] p=0.93 transactions.inventory.a0 {...}
//	  [1] p=0.67 catalogue.albums.d0 {...}
//	> 1
//	...
//	> finish
//
// Other commands: dbs, search <db> <level> <query>, path, explain, help,
// quit. The explain verb prints the EXPLAIN profile of the last q, search,
// or link-follow as an indented tree.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/telemetry"
	"quepa/internal/workload"
)

func main() {
	replicas := flag.Int("replicas", 0, "replication rounds")
	scale := flag.Float64("scale", 0.3, "workload scale factor")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()

	spec := workload.DefaultSpec().Scale(*scale)
	spec.ReplicaRounds = *replicas
	spec.Seed = *seed
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QUEPA explorer: %d databases, %d p-relations. Type 'help'.\n",
		built.Poly.Size(), built.Index.EdgeCount())
	repl(os.Stdin, os.Stdout, built)
}

// shell holds one interactive session's state.
type shell struct {
	out     io.Writer
	built   *workload.Built
	aug     *augment.Augmenter
	tracker *aindex.PathTracker
	session *augment.Exploration
	links   []augment.AugmentedObject // numbered choices of the last step
	started bool                      // session has begun but no Step yet
	starts  []core.Object             // the starting query's objects

	// lastProfile is the EXPLAIN profile of the most recent query-running
	// command (q, search, or a link follow), shown by the explain verb.
	lastProfile *explain.Profile
}

// repl drives the command loop; factored out of main for testing.
func repl(in io.Reader, out io.Writer, built *workload.Built) {
	sh := &shell{
		out:     out,
		built:   built,
		aug:     augment.New(built.Poly, built.Index, augment.Config{Strategy: augment.Inner, ThreadsSize: 4, CacheSize: 1024}),
		tracker: aindex.NewPathTracker(built.Index, aindex.DefaultPromotionPolicy),
	}
	scanner := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if line != "" {
			sh.execute(line)
		}
		fmt.Fprint(out, "> ")
	}
}

func (sh *shell) execute(line string) {
	ctx := context.Background()
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Fprintln(sh.out, `commands:
  dbs                          list databases
  q <db> <query>               start an exploration from a native query
  <n>                          follow link number n of the last step
  search <db> <level> <query>  one-shot augmented search
  path                         show the objects visited so far
  explain                      show the EXPLAIN profile of the last query
  finish                       end the session (may promote the path)
  quit`)
	case "dbs":
		for _, name := range sh.built.Databases() {
			s, err := sh.built.Poly.Database(name)
			if err != nil {
				continue
			}
			fmt.Fprintf(sh.out, "  %-20s %-11s %v\n", name, s.Kind(), s.Collections())
		}
	case "q":
		if len(fields) < 3 {
			fmt.Fprintln(sh.out, "usage: q <db> <query>")
			return
		}
		db := fields[1]
		query := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, "q"), " "+db))
		ctx, root := telemetry.StartSpan(ctx, "explore")
		sess, starts, err := sh.aug.Explore(ctx, db, query, sh.tracker)
		sh.lastProfile = profile(root, len(starts))
		if err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			return
		}
		sh.session = sess
		sh.starts = starts
		sh.started = true
		sh.links = nil
		for i, o := range starts {
			if i == 10 {
				fmt.Fprintf(sh.out, "  ... (%d more)\n", len(starts)-10)
				break
			}
			fmt.Fprintf(sh.out, "  [%d] %s\n", i, o)
		}
	case "search":
		if len(fields) < 4 {
			fmt.Fprintln(sh.out, "usage: search <db> <level> <query>")
			return
		}
		level, err := strconv.Atoi(fields[2])
		if err != nil {
			fmt.Fprintf(sh.out, "bad level %q\n", fields[2])
			return
		}
		query := strings.Join(fields[3:], " ")
		ctx, root := telemetry.StartSpan(ctx, "search")
		answer, err := sh.aug.Search(ctx, fields[1], query, level)
		if err != nil {
			sh.lastProfile = profile(root, 0)
			fmt.Fprintf(sh.out, "error: %v\n", err)
			return
		}
		sh.lastProfile = profile(root, len(answer.Original)+len(answer.Augmented))
		fmt.Fprintf(sh.out, "  %d local, %d augmented\n", len(answer.Original), len(answer.Augmented))
		for i, ao := range answer.Augmented {
			if i == 10 {
				fmt.Fprintf(sh.out, "  ... (%d more)\n", len(answer.Augmented)-10)
				break
			}
			fmt.Fprintf(sh.out, "  p=%.2f %s\n", ao.Prob, ao.Object)
		}
	case "path":
		if sh.session == nil {
			fmt.Fprintln(sh.out, "no session; start one with q")
			return
		}
		for _, gk := range sh.session.Path() {
			fmt.Fprintf(sh.out, "  %v\n", gk)
		}
	case "explain":
		if sh.lastProfile == nil {
			fmt.Fprintln(sh.out, "no profile yet; run q, search, or follow a link first")
			return
		}
		sh.lastProfile.WriteTree(sh.out)
	case "finish":
		if sh.session == nil {
			fmt.Fprintln(sh.out, "no session; start one with q")
			return
		}
		promoted := sh.session.Finish()
		fmt.Fprintf(sh.out, "session ended; path promoted: %v\n", promoted)
		sh.session = nil
		sh.links = nil
		sh.started = false
	default:
		n, err := strconv.Atoi(fields[0])
		if err != nil {
			fmt.Fprintf(sh.out, "unknown command %q (try help)\n", fields[0])
			return
		}
		sh.follow(ctx, n)
	}
}

// follow clicks link n: an index into the starting objects on the first
// step, into the last step's links afterwards.
func (sh *shell) follow(ctx context.Context, n int) {
	if sh.session == nil {
		fmt.Fprintln(sh.out, "no session; start one with q")
		return
	}
	var target core.GlobalKey
	switch {
	case sh.links == nil && sh.started:
		if n < 0 || n >= len(sh.starts) {
			fmt.Fprintf(sh.out, "no starting object %d\n", n)
			return
		}
		target = sh.starts[n].GK
	default:
		if n < 0 || n >= len(sh.links) {
			fmt.Fprintf(sh.out, "no link %d\n", n)
			return
		}
		target = sh.links[n].Object.GK
	}
	ctx, root := telemetry.StartSpan(ctx, "step")
	links, err := sh.session.Step(ctx, target)
	sh.lastProfile = profile(root, len(links))
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	sh.links = links
	if len(links) == 0 {
		fmt.Fprintln(sh.out, "  (no further links)")
		return
	}
	for i, l := range links {
		if i == 10 {
			fmt.Fprintf(sh.out, "  ... (%d more)\n", len(links)-10)
			break
		}
		fmt.Fprintf(sh.out, "  [%d] p=%.2f %s\n", i, l.Prob, l.Object)
	}
}

// profile closes a command's root span and derives its EXPLAIN profile from
// the span tree (nil with telemetry off).
func profile(root *telemetry.Span, objects int) *explain.Profile {
	defer root.End()
	root.SetAttr("objects", strconv.Itoa(objects))
	return explain.FromSpan(root)
}
