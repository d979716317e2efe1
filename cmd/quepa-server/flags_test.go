package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"quepa/internal/server"
)

// TestFlagTableMatchesREADME compares README's quepa-server flag table with
// the flags main defines: the same names, the same defaults, nothing extra
// on either side.
func TestFlagTableMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "### `quepa-server` flags\n")
	if !ok {
		t.Fatal("README has no \"### `quepa-server` flags\" section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	documented := map[string]string{} // flag -> default
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(line, "|")
		name := strings.Trim(strings.TrimSpace(cells[1]), "`-")
		if _, dup := documented[name]; dup {
			t.Errorf("README lists -%s twice", name)
		}
		documented[name] = strings.Trim(strings.TrimSpace(cells[2]), "`")
	}

	fs := flag.NewFlagSet("quepa-server", flag.ContinueOnError)
	defineFlags(fs, &server.Config{})
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := documented[f.Name]
		switch {
		case !ok:
			t.Errorf("-%s is not in README's flag table", f.Name)
		case def != f.DefValue:
			t.Errorf("README gives -%s the default %q, the flag has %q", f.Name, def, f.DefValue)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README documents -%s, which quepa-server does not define", name)
	}
}
