package wire

import (
	"context"
	"net"
	"testing"
	"time"

	"quepa/internal/resilience"
	"quepa/internal/telemetry"
)

// poisonConn replaces the client's single pooled connection with one that is
// already closed, exactly as TestClientRetryTraceRecorded does: the next
// frame write fails once and the request must retry on a fresh connection.
func poisonConn(t *testing.T, srv *Server, cli *Client) {
	t.Helper()
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
}

// TestClientRetrySpansInTrace pins the trace shape of a transport retry on
// the round-trip path (getbatch/query/keyfield): the traced request gets one
// "wire.<op>" span whose "wire.retry" child carries the attempt number, the
// retried attempt's frame bytes land on the attempt span, and the retry flag
// propagates to the trace root so tail sampling keeps the whole request.
func TestClientRetrySpansInTrace(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)

	srv := servedBackend(t)
	cli, err := DialConfig(srv.Addr(), ClientConfig{Retry: resilience.DefaultRetryPolicy(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetSleep(func(time.Duration) {})
	poisonConn(t, srv, cli)

	ctx, root := telemetry.StartSpan(context.Background(), "request")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	if _, err := cli.GetBatch(ctx, "drop", []string{"k1"}); err != nil {
		t.Fatalf("GetBatch did not recover from dead pooled conn: %v", err)
	}
	root.End()

	tree := root.JSON()
	var wireSpan *telemetry.SpanJSON
	for i := range tree.Children {
		if tree.Children[i].Name == "wire.getbatch" {
			wireSpan = &tree.Children[i]
		}
	}
	if wireSpan == nil {
		t.Fatalf("no wire.getbatch span under the root: %+v", tree)
	}
	if wireSpan.Attrs["store"] != "discount" {
		t.Errorf("wire span store = %q, want discount", wireSpan.Attrs["store"])
	}
	var retries []telemetry.SpanJSON
	for _, c := range wireSpan.Children {
		if c.Name == "wire.retry" {
			retries = append(retries, c)
		}
	}
	if len(retries) != 1 {
		t.Fatalf("wire.retry spans = %d, want 1 (children: %+v)", len(retries), wireSpan.Children)
	}
	if retries[0].Attrs["attempt"] != "1" {
		t.Errorf("retry attempt attr = %q, want 1", retries[0].Attrs["attempt"])
	}
	// The retried attempt is the one that succeeded, so the retry span has
	// the response bytes and no error attribute.
	if retries[0].BytesRecv == 0 {
		t.Error("successful retry span recorded no received bytes")
	}
	if retries[0].Attrs["error"] != "" {
		t.Errorf("successful retry span carries error %q", retries[0].Attrs["error"])
	}
	// The root is flagged: this trace survives tail sampling at any rate.
	found := false
	for _, f := range tree.Flags {
		if f == "retry" {
			found = true
		}
	}
	if !found {
		t.Errorf("root flags = %v, want retry", tree.Flags)
	}
}

// TestClientGetRetrySpanShape pins the Get path, which retries above the
// coalescing layer: each attempt is its own "wire.get" flight span and the
// "wire.retry" span (tagged with attempt and cause) sits beside them under
// the caller's span, covering the backoff between flights.
func TestClientGetRetrySpanShape(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)

	srv := servedBackend(t)
	cli, err := DialConfig(srv.Addr(), ClientConfig{Retry: resilience.DefaultRetryPolicy(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetSleep(func(time.Duration) {})
	poisonConn(t, srv, cli)

	ctx, root := telemetry.StartSpan(context.Background(), "request")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	if _, err := cli.Get(ctx, "drop", "k1"); err != nil {
		t.Fatalf("Get did not recover from dead pooled conn: %v", err)
	}
	root.End()

	tree := root.JSON()
	var flights, retries []telemetry.SpanJSON
	for _, c := range tree.Children {
		switch c.Name {
		case "wire.get":
			flights = append(flights, c)
		case "wire.retry":
			retries = append(retries, c)
		}
	}
	if len(flights) != 2 {
		t.Fatalf("wire.get flight spans = %d, want 2 (one per attempt): %+v", len(flights), tree.Children)
	}
	if len(retries) != 1 {
		t.Fatalf("wire.retry spans = %d, want 1: %+v", len(retries), tree.Children)
	}
	if retries[0].Attrs["attempt"] != "1" {
		t.Errorf("retry attempt attr = %q, want 1", retries[0].Attrs["attempt"])
	}
	if retries[0].Attrs["cause"] == "" {
		t.Error("retry span does not record the error that caused it")
	}
	// First flight failed, second carried the answer home.
	var withBytes, withError int
	for _, f := range flights {
		if f.Attrs["store"] != "discount" {
			t.Errorf("flight store = %q, want discount", f.Attrs["store"])
		}
		if f.BytesRecv > 0 {
			withBytes++
		}
		if f.Attrs["error"] != "" {
			withError++
		}
	}
	if withBytes != 1 || withError != 1 {
		t.Errorf("flights: %d with bytes, %d with error; want 1 and 1 (%+v)", withBytes, withError, flights)
	}
	found := false
	for _, f := range tree.Flags {
		if f == "retry" {
			found = true
		}
	}
	if !found {
		t.Errorf("root flags = %v, want retry", tree.Flags)
	}
}
