package kvstore

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	s := New("discount")
	s.Set("drop", "k1:cure:wish", "40%")
	v, ok := s.Get("drop", "k1:cure:wish")
	if !ok || v != "40%" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := s.Get("drop", "missing"); ok {
		t.Error("missing key reported present")
	}
	if _, ok := s.Get("nobucket", "k"); ok {
		t.Error("missing bucket reported present")
	}
	// Overwrite keeps a single entry.
	s.Set("drop", "k1:cure:wish", "50%")
	if keys := s.Keys("drop", "*"); len(keys) != 1 {
		t.Errorf("Keys after overwrite = %v", keys)
	}
	v, _ = s.Get("drop", "k1:cure:wish")
	if v != "50%" {
		t.Errorf("overwritten value = %q", v)
	}
}

func TestMGetOrderAndSkips(t *testing.T) {
	s := New("db")
	s.Set("b", "k1", "v1")
	s.Set("b", "k2", "v2")
	s.Set("b", "k3", "v3")
	got := s.MGet("b", []string{"k3", "nope", "k1"})
	if len(got) != 2 || got[0].Key != "k3" || got[1].Key != "k1" {
		t.Errorf("MGet = %+v", got)
	}
	if s.MGet("ghost", []string{"k"}) != nil {
		t.Error("MGet on missing bucket should return nil")
	}
}

func TestDel(t *testing.T) {
	s := New("db")
	s.Set("b", "k1", "v1")
	s.Set("b", "k2", "v2")
	if n := s.Del("b", "k1", "ghost"); n != 1 {
		t.Errorf("Del = %d, want 1", n)
	}
	keys := s.Keys("b", "*")
	if len(keys) != 1 || keys[0] != "k2" {
		t.Errorf("Keys after Del = %v", keys)
	}
	if n := s.Del("ghost", "k"); n != 0 {
		t.Errorf("Del on missing bucket = %d", n)
	}
}

func TestKeysGlob(t *testing.T) {
	s := New("db")
	for _, k := range []string{"k1:cure:wish", "k2:cure:head", "j9:other", "k10:x"} {
		s.Set("drop", k, "v")
	}
	tests := []struct {
		glob string
		want int
	}{
		{"k*", 3},
		{"*cure*", 2},
		{"k?:*", 2},
		{"*", 4},
		{"zzz", 0},
		{"k1:cure:wish", 1},
	}
	for _, tt := range tests {
		if got := s.Keys("drop", tt.glob); len(got) != tt.want {
			t.Errorf("Keys(%q) = %v, want %d entries", tt.glob, got, tt.want)
		}
	}
}

func TestGlobMatchProperties(t *testing.T) {
	// '*' matches anything.
	if err := quick.Check(func(s string) bool { return globMatch(s, "*") }, nil); err != nil {
		t.Error(err)
	}
	// A glob equal to the string (no metacharacters) matches it.
	f := func(s string) bool {
		if strings.ContainsAny(s, "*?") {
			return true
		}
		return globMatch(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDoCommands(t *testing.T) {
	s := New("db")
	tests := []struct {
		cmd     string
		wantN   int
		wantErr bool
	}{
		{"SET drop k1 40%", 1, false},
		{"SET drop k2 multi word value", 1, false},
		{"GET drop k1", 1, false},
		{"GET drop ghost", 0, false},
		{"MGET drop k1 k2 ghost", 2, false},
		{"KEYS drop k*", 2, false},
		{"SCAN drop", 2, false},
		{"DEL drop k1", 1, false},
		{"SCAN ghostbucket", 0, false},
		{"", 0, true},
		{"BOGUS x y", 0, true},
		{"SET drop k1", 0, true},
		{"GET drop", 0, true},
		{"MGET drop", 0, true},
		{"DEL drop", 0, true},
		{"KEYS drop", 0, true},
		{"SCAN", 0, true},
	}
	for _, tt := range tests {
		got, err := s.Do(tt.cmd)
		if (err != nil) != tt.wantErr {
			t.Errorf("Do(%q) error = %v, wantErr %v", tt.cmd, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && len(got) != tt.wantN {
			t.Errorf("Do(%q) returned %d entries, want %d", tt.cmd, len(got), tt.wantN)
		}
	}
	// SET with multi-word value preserves the words.
	out, err := s.Do("GET drop k2")
	if err != nil || len(out) != 1 || out[0].Value != "multi word value" {
		t.Errorf("multi-word value: %+v, %v", out, err)
	}
	// Lowercase commands are accepted.
	if _, err := s.Do("get drop k2"); err != nil {
		t.Errorf("lowercase command: %v", err)
	}
	// LEN and EXISTS are refused by the validator by name; Do does not
	// know them, nor Redis's expiry commands (the store is TTL-free), and
	// leaves the bucket as it was.
	before, _ := s.Do("SCAN drop")
	for _, cmd := range []string{"LEN drop", "EXISTS drop k2", "EXISTS drop ghost",
		"SETEX drop k2 10 v", "EXPIRE drop k2 0", "TTL drop k2"} {
		if got, err := s.Do(cmd); err == nil {
			t.Errorf("Do(%q) = %+v; want an error", cmd, got)
		}
	}
	if after, _ := s.Do("SCAN drop"); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("refused commands changed the bucket: %v, then %v", before, after)
	}
}

func TestBucketsSorted(t *testing.T) {
	s := New("db")
	s.Set("zz", "k", "v")
	s.Set("aa", "k", "v")
	got := s.Buckets()
	if len(got) != 2 || got[0] != "aa" || got[1] != "zz" {
		t.Errorf("Buckets() = %v", got)
	}
}
