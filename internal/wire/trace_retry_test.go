package wire

import (
	"context"
	"net"
	"slices"
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

// TestClientRetrySpansInTrace pins the trace shape of a transport retry,
// which every op takes through the one round-trip path: the traced request
// gets one "wire.<op>" span whose "wire.retry" child carries the attempt
// number and its cause, the retried attempt's frame bytes land on the attempt
// span, and the retry flag propagates to the trace root so tail sampling
// keeps the whole request.
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

	for _, op := range []struct {
		name string
		call func(context.Context) error
	}{
		{opGetBatch, func(ctx context.Context) error { _, err := cli.GetBatch(ctx, "drop", []string{"k1"}); return err }},
		{opGet, func(ctx context.Context) error { _, err := cli.Get(ctx, "drop", "k1"); return err }},
	} {
		poisonConn(t, srv, cli)
		ctx, root := telemetry.StartSpan(context.Background(), "request")
		if root == nil {
			t.Fatal("no root span (telemetry disabled?)")
		}
		if err := op.call(ctx); err != nil {
			t.Fatalf("%s did not recover from dead pooled conn: %v", op.name, err)
		}
		root.End()

		tree := root.JSON()
		var wireSpans []telemetry.SpanJSON
		for _, c := range tree.Children {
			if c.Name == "wire."+op.name {
				wireSpans = append(wireSpans, c)
			}
		}
		if len(wireSpans) != 1 {
			t.Fatalf("%s: wire.%s spans under the root = %d, want 1: %+v", op.name, op.name, len(wireSpans), tree)
		}
		wireSpan := wireSpans[0]
		if wireSpan.Attrs["store"] != "discount" {
			t.Errorf("%s: wire span store = %q, want discount", op.name, wireSpan.Attrs["store"])
		}
		var retries []telemetry.SpanJSON
		for _, c := range wireSpan.Children {
			if c.Name == "wire.retry" {
				retries = append(retries, c)
			}
		}
		if len(retries) != 1 {
			t.Fatalf("%s: wire.retry spans = %d, want 1 (children: %+v)", op.name, len(retries), wireSpan.Children)
		}
		if retries[0].Attrs["attempt"] != "1" {
			t.Errorf("%s: retry attempt attr = %q, want 1", op.name, retries[0].Attrs["attempt"])
		}
		if retries[0].Attrs["cause"] == "" {
			t.Errorf("%s: retry span does not record the error that caused it", op.name)
		}
		// The retried attempt is the one that succeeded, so the retry span
		// has the response bytes and no error attribute.
		if retries[0].BytesRecv == 0 {
			t.Errorf("%s: successful retry span recorded no received bytes", op.name)
		}
		if retries[0].Attrs["error"] != "" {
			t.Errorf("%s: successful retry span carries error %q", op.name, retries[0].Attrs["error"])
		}
		// The root is flagged: this trace survives tail sampling at any rate.
		if !slices.Contains(tree.Flags, "retry") {
			t.Errorf("%s: root flags = %v, want retry", op.name, tree.Flags)
		}
	}
}
