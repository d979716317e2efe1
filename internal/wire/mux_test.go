package wire

import (
	"context"
	"sync"
	"testing"
	"time"

	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/resilience"
	"quepa/internal/stores/kvstore"
)

// stallStore wraps a store and parks Gets against the "slow" collection
// until released, signalling when the first one has entered.
type stallStore struct {
	core.Store
	enterOnce sync.Once
	entered   chan struct{}
	release   chan struct{}
}

func (s *stallStore) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if collection == "slow" {
		s.enterOnce.Do(func() { close(s.entered) })
		<-s.release
	}
	return s.Store.Get(ctx, collection, key)
}

func muxPolicy() resilience.RetryPolicy {
	return resilience.RetryPolicy{MaxAttempts: 1, AttemptTimeout: 10 * time.Second}
}

// TestMuxOutOfOrderResponses is the multiplexing acceptance criterion: with
// a single TCP connection, a request issued second completes first while an
// earlier one is still being served, and when the slow response finally
// arrives it is demuxed to the right caller — the frame IDs, not arrival
// order, route responses.
func TestMuxOutOfOrderResponses(t *testing.T) {
	kv := kvstore.New("stall")
	kv.Set("slow", "k", "tortoise")
	kv.Set("fast", "k", "hare")
	st := &stallStore{Store: connector.NewKeyValue(kv), entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr(), ClientConfig{Retry: muxPolicy(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	type result struct {
		obj core.Object
		err error
	}
	slowDone := make(chan result, 1)
	go func() {
		o, err := cli.Get(context.Background(), "slow", "k")
		slowDone <- result{o, err}
	}()
	<-st.entered // the slow frame is in the server, occupying the only conn

	fast, err := cli.Get(context.Background(), "fast", "k")
	if err != nil || value(fast) != "hare" {
		t.Fatalf("fast Get behind the stalled one = %v, %v", fast, err)
	}
	select {
	case r := <-slowDone:
		t.Fatalf("slow Get completed before release: %v, %v", r.obj, r.err)
	default:
	}

	close(st.release)
	r := <-slowDone
	if r.err != nil || value(r.obj) != "tortoise" {
		t.Fatalf("slow Get after release = %v, %v", r.obj, r.err)
	}

	// Both Gets (and the dial's meta) shared the one connection out of order.
	cli.connMu.Lock()
	live := 0
	for _, mc := range cli.conns {
		if mc != nil {
			live++
		}
	}
	cli.connMu.Unlock()
	if live != 1 {
		t.Errorf("PoolSize 1 client holds %d connections", live)
	}
	if f := cli.Frames(); f != 3 {
		t.Errorf("frames = %d, want 3 (meta + slow get + fast get)", f)
	}
}

// TestConcurrentGetsOwnFrames: Gets queued behind a parked Get on the one
// connection each fly their own get frame and each come back with their own
// object. Nothing aggregates them: every frame is written while the first
// Get is still parked in the server.
func TestConcurrentGetsOwnFrames(t *testing.T) {
	kv := kvstore.New("stall")
	kv.Set("slow", "k", "first")
	const members = 16
	for i := 0; i < members; i++ {
		kv.Set("slow", key(i), "v"+key(i))
	}
	st := &stallStore{Store: connector.NewKeyValue(kv), entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr(), ClientConfig{Retry: muxPolicy(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	firstDone := make(chan error, 1)
	go func() {
		_, err := cli.Get(context.Background(), "slow", "k")
		firstDone <- err
	}()
	<-st.entered // the first get frame is parked in the server

	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, err := cli.Get(context.Background(), "slow", key(i))
			if err != nil || value(o) != "v"+key(i) {
				t.Errorf("member %d = %v, %v", i, o, err)
			}
		}(i)
	}
	// Wait until every member's frame is on the wire behind the parked one.
	for deadline := time.Now().Add(5 * time.Second); cli.Frames() < members+2 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	close(st.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first Get = %v", err)
	}
	wg.Wait()

	if f := cli.Frames(); f != members+2 {
		t.Errorf("frames = %d, want %d (meta + one get per caller)", f, members+2)
	}
	if rt := cli.RoundTrips(); rt != members+2 {
		t.Errorf("round trips = %d, want %d", rt, members+2)
	}
}

func key(i int) string { return "m" + string(rune('a'+i)) }

// BenchmarkMuxConcurrentGets drives many goroutines' Gets through one
// multiplexed client against a loopback server — the wire-level shape of a
// concurrent augmentation. Demux shows up in the ns/op and allocs/op here.
func BenchmarkMuxConcurrentGets(b *testing.B) {
	kv := kvstore.New("bench")
	const nkeys = 256
	keys := make([]string, nkeys)
	for i := 0; i < nkeys; i++ {
		keys[i] = "k" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		kv.Set("main", keys[i], "v")
	}
	srv, err := Serve(connector.NewKeyValue(kv), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialConfig(srv.Addr(), ClientConfig{Retry: muxPolicy(), PoolSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := cli.Get(ctx, "main", keys[i%nkeys]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
