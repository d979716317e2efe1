package wire

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quepa/internal/connector"
	"quepa/internal/explain"
	"quepa/internal/resilience"
	"quepa/internal/stores/kvstore"
	"quepa/internal/telemetry"
)

// chaosProxy fronts a wire server and kills the first kill accepted
// connections outright, so the client sees deterministic transport faults.
type chaosProxy struct {
	ln       net.Listener
	backend  string
	kill     int64
	accepted atomic.Int64
}

func newChaosProxy(t *testing.T, backend string, kill int64) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, backend: backend, kill: kill}
	t.Cleanup(func() { ln.Close() })
	go p.run()
	return p
}

func (p *chaosProxy) run() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.accepted.Add(1) <= p.kill {
			conn.Close()
			continue
		}
		go p.pipe(conn)
	}
}

func (p *chaosProxy) pipe(conn net.Conn) {
	up, err := net.Dial("tcp", p.backend)
	if err != nil {
		conn.Close()
		return
	}
	go func() { io.Copy(up, conn); up.Close() }()
	io.Copy(conn, up)
	conn.Close()
}

func servedBackend(t *testing.T) *Server {
	t.Helper()
	db := kvstore.New("discount")
	db.Set("drop", "k1", "40%")
	srv, err := Serve(connector.NewKeyValue(db), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestClientRetriesTransportFault: a connection killed mid-flight is retried
// on a fresh one within the budget; the retry is counted and traced.
func TestClientRetriesTransportFault(t *testing.T) {
	srv := servedBackend(t)
	proxy := newChaosProxy(t, srv.Addr(), 1)

	cli, err := DialConfig(proxy.ln.Addr().String(), ClientConfig{
		Retry: resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, Jitter: 0},
	})
	if err != nil {
		t.Fatalf("Dial did not retry past the killed connection: %v", err)
	}
	defer cli.Close()
	if cli.Retries() != 1 {
		t.Errorf("retries after dial = %d, want 1", cli.Retries())
	}

	rctx, root := telemetry.StartSpan(context.Background(), "http /search")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	o, err := cli.Get(rctx, "drop", "k1")
	if err != nil || value(o) != "40%" {
		t.Fatalf("Get through proxy = %v, %v", o, err)
	}
	p := explain.FromSpan(root)
	root.End()
	if p.Totals.WireRetries != 0 {
		t.Errorf("healthy Get recorded %d retries", p.Totals.WireRetries)
	}
}

// TestClientRetryTraceRecorded: a retried request lands in the profile
// derived from its trace with store, op, attempt, cause and backoff.
func TestClientRetryTraceRecorded(t *testing.T) {
	srv := servedBackend(t)
	cli, err := DialConfig(srv.Addr(), ClientConfig{Retry: resilience.DefaultRetryPolicy(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetSleep(func(time.Duration) {})

	// Poison the single connection slot: kill whatever Dial left there and
	// install a mux conn whose socket is already closed (and that never
	// started a reader), so the next request's frame write fails once and
	// must retry on a fresh connection.
	dead, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	cli.connMu.Lock()
	old := cli.conns[0]
	cli.conns[0] = &muxConn{c: dead, pending: map[uint64]chan wireResult{}}
	cli.connMu.Unlock()
	if old != nil {
		old.kill(errConnBroken)
	}

	rctx, root := telemetry.StartSpan(context.Background(), "http /search")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	if _, err := cli.Get(rctx, "drop", "k1"); err != nil {
		t.Fatalf("Get did not recover from dead pooled conn: %v", err)
	}
	p := explain.FromSpan(root)
	root.End()
	if p.Totals.WireRetries != 1 || len(p.Retries) != 1 {
		t.Fatalf("retry totals = %d, traces = %d, want 1/1", p.Totals.WireRetries, len(p.Retries))
	}
	tr := p.Retries[0]
	if tr.Store != "discount" || tr.Op != opGet || tr.Attempt != 1 || tr.Error == "" {
		t.Errorf("retry trace = %+v", tr)
	}
}

// TestClientRetrySkipsRemoteErrors: a deliberate server-side error reply is
// not a transport fault and must not be retried.
func TestClientRetrySkipsRemoteErrors(t *testing.T) {
	srv := servedBackend(t)
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Query(context.Background(), "BOGUS"); err == nil {
		t.Fatal("bogus query should fail")
	}
	if cli.Retries() != 0 {
		t.Errorf("remote error retried %d times", cli.Retries())
	}
}

// TestClientRetryAttemptDeadline: a stalled server trips the per-attempt
// deadline instead of hanging the caller.
func TestClientRetryAttemptDeadline(t *testing.T) {
	// A listener that accepts and never replies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn) }()
		}
	}()

	framesBefore, timeoutsBefore := clientFrames[opMeta].Value(), clientTimeouts[opMeta].Value()
	_, err = DialConfig(ln.Addr().String(), ClientConfig{
		Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, Jitter: 0, AttemptTimeout: 50 * time.Millisecond},
	})
	if err == nil {
		t.Fatal("dial against a stalled server should fail")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("want a timeout error, got %v", err)
	}
	// The deadline, not the caller's patience, ended each attempt: exactly the
	// policy's two frames went out and the round trip is counted as timed out.
	// (Counters rather than a wall-clock ceiling, which a loaded machine
	// stretches.)
	if frames := clientFrames[opMeta].Value() - framesBefore; frames != 2 {
		t.Errorf("stalled dial wrote %d meta frames, want the policy's 2 attempts", frames)
	}
	if timeouts := clientTimeouts[opMeta].Value() - timeoutsBefore; timeouts != 1 {
		t.Errorf("stalled dial counted %d timed-out round trips, want 1", timeouts)
	}
}

// TestClientCloseRaceWithRetries hammers Close against in-flight requests
// under -race: no connection may survive in the slot table once both sides
// settle, and post-Close requests fail fast with ErrClosed.
func TestClientCloseRaceWithRetries(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv := servedBackend(t)
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cli.SetSleep(func(time.Duration) {})

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					cli.Get(context.Background(), "drop", "k1")
				}
			}()
		}
		cli.Close()
		wg.Wait()
		// Close nils every slot and the closed flag blocks re-installs, so no
		// connection may be left behind.
		cli.connMu.Lock()
		for i, mc := range cli.conns {
			if mc != nil {
				t.Fatalf("round %d: connection slot %d still populated after Close", round, i)
			}
		}
		cli.connMu.Unlock()
		if _, err := cli.Get(context.Background(), "drop", "k1"); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: Get after Close = %v, want ErrClosed", round, err)
		}
		if cli.Retries() != 0 {
			// ErrClosed is not transient; closing must not trigger retries.
			t.Fatalf("round %d: close caused %d retries", round, cli.Retries())
		}
		srv.Close()
	}
}

// TestClientRetryNoFaultZeroAllocs pins the acceptance criterion: retry
// support adds zero allocations to the fault-free round trip beyond what the
// frame codec already costs.
func TestClientRetryNoFaultZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate is plain-build only")
	}
	srv := servedBackend(t)
	plain, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	noRetry, err := DialConfig(srv.Addr(), ClientConfig{Retry: resilience.RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer noRetry.Close()

	ctx := context.Background()
	// AllocsPerRun counts process-global mallocs, so the in-process server
	// handler adds one-sided noise; the minimum of a few measurements is the
	// client's true cost.
	measure := func(c *Client) float64 {
		best := math.MaxFloat64
		for i := 0; i < 5; i++ {
			n := testing.AllocsPerRun(100, func() {
				if _, err := c.Get(ctx, "drop", "k1"); err != nil {
					t.Fatal(err)
				}
			})
			if n < best {
				best = n
			}
		}
		return best
	}
	with, without := measure(plain), measure(noRetry)
	if with > without {
		t.Errorf("retry-enabled Get allocates %v per run vs %v with retries off", with, without)
	}
}
