package quepa

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var seriesName = regexp.MustCompile(`^quepa_[a-z0-9_]+$`)

// TestSignalsDocumented checks docs/SIGNALS.md against the code. Every
// string literal of non-test code under internal/ and cmd/ that is a
// quepa_* name must have a row in the table, and every row must name a
// series some such literal registers. Literals are read with go/scanner,
// as TestExportedNamesAreReached reads identifiers, so comments do not
// count.
func TestSignalsDocumented(t *testing.T) {
	inCode := map[string]string{} // name -> first file that mentions it
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var s scanner.Scanner
			s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
			for {
				_, tok, lit := s.Scan()
				if tok == token.EOF {
					return nil
				}
				if tok != token.STRING {
					continue
				}
				if v, err := strconv.Unquote(lit); err == nil && seriesName.MatchString(v) {
					if _, ok := inCode[v]; !ok {
						inCode[v] = path
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(inCode) == 0 {
		t.Fatal("no quepa_* literal found: the scan is broken")
	}

	doc, err := os.ReadFile(filepath.Join("docs", "SIGNALS.md"))
	if err != nil {
		t.Fatal(err)
	}
	inDoc := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		cell, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(cell, "`")
		if !seriesName.MatchString(name) {
			continue
		}
		if inDoc[name] {
			t.Errorf("docs/SIGNALS.md: %s has two rows", name)
		}
		inDoc[name] = true
	}

	var missing, stale []string
	for name, path := range inCode {
		if !inDoc[name] {
			missing = append(missing, name+" ("+path+")")
		}
	}
	for name := range inDoc {
		if _, ok := inCode[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("%s: a series with no row in docs/SIGNALS.md", m)
	}
	for _, s := range stale {
		t.Errorf("docs/SIGNALS.md row %s: no non-test code under internal/ or cmd/ names it", s)
	}
}
