package kvstore

import (
	"testing"
	"time"
)

// fakeClock is a settable time source.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTTLStore() (*Store, *fakeClock) {
	s := New("discount")
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.SetClock(clk.now)
	return s, clk
}

func TestTTLExpiry(t *testing.T) {
	s, clk := newTTLStore()
	s.SetWithTTL("drop", "k1", "40%", 10*time.Second)
	if v, ok := s.Get("drop", "k1"); !ok || v != "40%" {
		t.Fatalf("fresh key: %q, %v", v, ok)
	}
	clk.advance(9 * time.Second)
	if _, ok := s.Get("drop", "k1"); !ok {
		t.Fatal("key expired early")
	}
	clk.advance(2 * time.Second)
	if _, ok := s.Get("drop", "k1"); ok {
		t.Fatal("expired key still readable")
	}
	// Reaped, not just hidden.
	if n := len(s.buckets["drop"].data); n != 0 {
		t.Errorf("entries after expiry = %d", n)
	}
}

func TestTTLReapOnBulkReads(t *testing.T) {
	s, clk := newTTLStore()
	s.Set("drop", "keep", "v")
	s.SetWithTTL("drop", "gone", "v", time.Second)
	clk.advance(2 * time.Second)

	if got := s.MGet("drop", []string{"keep", "gone"}); len(got) != 1 || got[0].Key != "keep" {
		t.Errorf("MGet = %+v", got)
	}
	s.SetWithTTL("drop", "gone2", "v", time.Second)
	clk.advance(2 * time.Second)
	if got := s.Keys("drop", "*"); len(got) != 1 {
		t.Errorf("Keys = %v", got)
	}
	s.SetWithTTL("drop", "gone3", "v", time.Second)
	clk.advance(2 * time.Second)
	if got, err := s.Do("SCAN drop"); err != nil || len(got) != 1 {
		t.Errorf("SCAN = %+v, %v", got, err)
	}
}

func TestExpireCommandSemantics(t *testing.T) {
	s, clk := newTTLStore()
	s.Set("b", "k", "v")
	if !s.Expire("b", "k", 5*time.Second) {
		t.Fatal("Expire on existing key returned false")
	}
	if s.Expire("b", "ghost", time.Second) || s.Expire("nobucket", "k", time.Second) {
		t.Error("Expire on missing key/bucket returned true")
	}
	remaining, expires, ok := s.TTL("b", "k")
	if !ok || !expires || remaining != 5*time.Second {
		t.Errorf("TTL = %v, %v, %v", remaining, expires, ok)
	}
	// A plain SET clears the deadline.
	s.Set("b", "k", "v2")
	if _, expires, ok := s.TTL("b", "k"); !ok || expires {
		t.Error("SET did not clear expiry")
	}
	// Non-positive TTL deletes immediately.
	s.Set("b", "k2", "v")
	s.Expire("b", "k2", 0)
	if _, ok := s.Get("b", "k2"); ok {
		t.Error("zero TTL did not delete")
	}
	clk.advance(time.Hour)
	if _, _, ok := s.TTL("b", "ghost"); ok {
		t.Error("TTL on missing key reported ok")
	}
}

func TestTTLTextCommands(t *testing.T) {
	s, clk := newTTLStore()
	if _, err := s.Do("SETEX drop k1 10 multi word value"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Do("GET drop k1")
	if err != nil || len(out) != 1 || out[0].Value != "multi word value" {
		t.Fatalf("GET after SETEX = %+v, %v", out, err)
	}
	out, err = s.Do("TTL drop k1")
	if err != nil || out[0].Value != "10" {
		t.Errorf("TTL = %+v, %v", out, err)
	}
	s.Do("SET drop persistent v")
	out, _ = s.Do("TTL drop persistent")
	if out[0].Value != "-1" {
		t.Errorf("persistent TTL = %q", out[0].Value)
	}
	out, _ = s.Do("TTL drop ghost")
	if out[0].Value != "-2" {
		t.Errorf("missing TTL = %q", out[0].Value)
	}
	if _, err := s.Do("EXPIRE drop k1 3"); err != nil {
		t.Fatal(err)
	}
	clk.advance(4 * time.Second)
	if out, _ := s.Do("GET drop k1"); len(out) != 0 {
		t.Error("key survived shortened expiry")
	}
	// Error paths.
	for _, cmd := range []string{
		"SETEX drop k 10",  // missing value
		"SETEX drop k x v", // bad seconds
		"SETEX drop k 0 v", // non-positive
		"EXPIRE drop k",    // missing seconds
		"EXPIRE drop k x",  // bad seconds
		"TTL drop",         // missing key
	} {
		if _, err := s.Do(cmd); err == nil {
			t.Errorf("Do(%q) should fail", cmd)
		}
	}
}

func TestSetClockNilRestoresRealTime(t *testing.T) {
	s, _ := newTTLStore()
	s.SetClock(nil)
	s.SetWithTTL("b", "k", "v", time.Hour)
	if _, ok := s.Get("b", "k"); !ok {
		t.Error("key with real-clock TTL missing")
	}
}
