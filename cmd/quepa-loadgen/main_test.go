package main

import (
	"reflect"
	"testing"
)

// TestServeAddrs covers the -serve address derivation: consecutive ports
// from a non-zero base, any port per store from port 0, and the rejects.
func TestServeAddrs(t *testing.T) {
	cases := []struct {
		base string
		n    int
		want []string // nil: the base must be rejected
	}{
		{"127.0.0.1:17555", 3, []string{"127.0.0.1:17555", "127.0.0.1:17556", "127.0.0.1:17557"}},
		{"127.0.0.1:0", 3, []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}},
		{":7000", 2, []string{":7000", ":7001"}},
		{"[::1]:7000", 2, []string{"[::1]:7000", "[::1]:7001"}},
		{"127.0.0.1:65532", 4, []string{"127.0.0.1:65532", "127.0.0.1:65533", "127.0.0.1:65534", "127.0.0.1:65535"}},
		{"127.0.0.1:65533", 4, nil}, // last store would need port 65536
		{"127.0.0.1:65536", 1, nil},
		{"127.0.0.1:-1", 1, nil},
		{"127.0.0.1:http", 1, nil},
		{"127.0.0.1", 1, nil},
	}
	for _, c := range cases {
		got, err := serveAddrs(c.base, c.n)
		if c.want == nil {
			if err == nil {
				t.Errorf("serveAddrs(%q, %d) = %v, want an error", c.base, c.n, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("serveAddrs(%q, %d) = %v, %v; want %v", c.base, c.n, got, err, c.want)
		}
	}
}
