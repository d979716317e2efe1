package quepa

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepUnreached lists the exported funcs and methods under internal/ that no
// non-test code names, kept on purpose: references tests compare against,
// test seams and safety code. It mirrors the "keep" rows of DESIGN §3.14;
// a row is keyed "package.Receiver.Name", or "package.Name" for a func.
var keepUnreached = map[string]string{
	"aindex.PathTracker.Visits":         "test seam: the promotion tests observe the per-path count",
	"netsim.Store.SimulatedNetworkTime": "has its own test; the planned distributed workload reports it",
	"netsim.NewChaos":                   "test-only fault injector: the chaos suites wrap stores in it",
	"netsim.NewChaosNode":               "test-only fault injector: the cluster suites wrap peers in it",
	"wire.Client.Frames":                "test seam: the mux tests and integration's frame-count assertion",
	"cache.Sharded.Shards":              "test seam: the sharding threshold",
	"core.NewObject":                    "the sorting constructor tests and examples build objects from field maps with",
	"memlimit.Accountant.Used":          "test seam of the OOM model behind Fig. 13",
	"memlimit.Accountant.Peak":          "test seam of the OOM model behind Fig. 13",
	"memlimit.Accountant.Budget":        "test seam of the OOM model behind Fig. 13",
	"c45.Tree.Leaves":                   "test seam: the pruning assertions",
	"slo.Engine.Tripped":                "test seam: the once-only trip",
	"graphstore.Store.DeleteNode":       "test seam: the ordered-index equivalence histories delete nodes",
	"docstore.Store.Delete":             "test seam: the ordered-index equivalence histories delete documents",
	"telemetry.DefaultLogger":           "test seam: the default logger redirect",
	"telemetry.SetLogOutput":            "test seam: log capture",
	"telemetry.SetEnabled":              "safety code: the instrumentation kill switch",
	"telemetry.SeedTraceIDs":            "test seam: deterministic trace IDs",
	"telemetry.TraceLog.Dropped":        "tests read it until it becomes a series",
}

// TestExportedNamesAreReached is DESIGN §3.14's scan as a test. For every
// exported func or method declared in a non-test file under internal/, it
// counts the occurrences of the name as an identifier token across every
// non-test .go file of the module (cmd/, examples/ and benchmark/ included;
// comments do not count). A name whose only occurrence is its declaration
// has no non-test caller: delete it, or give it a keepUnreached row. The
// scan matches names, not types, so a method that shares its name with
// anything in use counts as reached.
func TestExportedNamesAreReached(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	uses := map[string]int{}
	fset := token.NewFileSet()
	type decl struct{ qualified, name string }
	var decls []decl
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				uses[lit]++
			}
		}
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			q := f.Name.Name + "."
			if fn.Recv != nil {
				q += receiverName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{q + fn.Name.Name, fn.Name.Name})
		}
	}

	var unreached []string
	flagged := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] > 1 {
			continue
		}
		flagged[d.qualified] = true
		if _, ok := keepUnreached[d.qualified]; !ok {
			unreached = append(unreached, d.qualified)
		}
	}
	sort.Strings(unreached)
	for _, q := range unreached {
		t.Errorf("%s: exported, but no non-test code names it; delete it or add a keepUnreached row", q)
	}
	for q := range keepUnreached {
		if !flagged[q] {
			t.Errorf("keepUnreached row %s: no such unreached name any more; drop the row", q)
		}
	}
}

// receiverName returns the type name of a method receiver: T for T, *T,
// T[K] and *T[K].
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
