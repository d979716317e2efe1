package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
	"quepa/internal/telemetry"
)

var _ core.Store = (*Client)(nil)

// value returns an object's key-value payload, "" when absent.
func value(o core.Object) string {
	v, _ := o.Fields.Get(core.ValueField)
	return v
}

func newServedKV(t *testing.T) (*Server, *Client) {
	t.Helper()
	db := kvstore.New("discount")
	db.Set("drop", "k1", "40%")
	db.Set("drop", "k2", "10%")
	db.Set("drop", "k3", "25%")
	srv, err := Serve(connector.NewKeyValue(db), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return srv, cli
}

func TestMetaOnDial(t *testing.T) {
	_, cli := newServedKV(t)
	if cli.Name() != "discount" || cli.Kind() != core.KindKeyValue {
		t.Errorf("meta: %s %v", cli.Name(), cli.Kind())
	}
	if cols := cli.Collections(); len(cols) != 1 || cols[0] != "drop" {
		t.Errorf("collections: %v", cols)
	}
}

func TestRemoteGet(t *testing.T) {
	_, cli := newServedKV(t)
	ctx := context.Background()
	o, err := cli.Get(ctx, "drop", "k1")
	if err != nil {
		t.Fatal(err)
	}
	if o.GK.String() != "discount.drop.k1" || value(o) != "40%" {
		t.Errorf("Get = %v", o)
	}
	if _, err := cli.Get(ctx, "drop", "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("remote miss = %v, want ErrNotFound", err)
	}
}

func TestRemoteGetBatchAndQuery(t *testing.T) {
	_, cli := newServedKV(t)
	ctx := context.Background()
	objs, err := cli.GetBatch(ctx, "drop", []string{"k3", "ghost", "k1"})
	if err != nil || len(objs) != 2 || objs[0].GK.Key != "k3" {
		t.Fatalf("GetBatch = %v, %v", objs, err)
	}
	objs, err = cli.Query(ctx, "SCAN drop")
	if err != nil || len(objs) != 3 {
		t.Fatalf("Query = %v, %v", objs, err)
	}
	if _, err := cli.Query(ctx, "BOGUS"); err == nil {
		t.Error("remote query error should propagate")
	}
}

func TestRemoteRelational(t *testing.T) {
	db := relstore.New("transactions")
	if _, err := db.Exec(`CREATE TABLE inventory (id TEXT PRIMARY KEY, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO inventory VALUES ('a32', 'Wish')`); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(connector.NewRelational(db), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	objs, err := cli.Query(context.Background(), `SELECT * FROM inventory WHERE name LIKE '%wish%'`)
	if err != nil || len(objs) != 1 || objs[0].GK.Key != "a32" {
		t.Errorf("remote SQL = %v, %v", objs, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, cli := newServedKV(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Get(ctx, "drop", "k1"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cli.RoundTrips() < 64 {
		t.Errorf("round trips = %d", cli.RoundTrips())
	}
}

func TestContextCancelled(t *testing.T) {
	_, cli := newServedKV(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cli.Get(ctx, "drop", "k1"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Get = %v", err)
	}
	if _, err := cli.GetBatch(ctx, "drop", []string{"k1"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled GetBatch = %v", err)
	}
	if _, err := cli.Query(ctx, "SCAN drop"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Query = %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port should fail")
	}
}

func TestServerClose(t *testing.T) {
	srv, cli := newServedKV(t)
	if _, err := cli.Get(context.Background(), "drop", "k1"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	cli.Close()
	// After close, new requests fail (the pool is drained and redial fails
	// or the conn is dead).
	if _, err := cli.Get(context.Background(), "drop", "k1"); err == nil {
		t.Error("Get after server close should fail")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	in := request{Op: opGetBatch, Collection: "c", Keys: []string{"a", "b"}}
	var buf bytes.Buffer
	wrote, err := writeRequestFrame(&buf, &in)
	if err != nil {
		t.Fatal(err)
	}
	if first := buf.Bytes()[4]; first != frameVersion {
		t.Errorf("frame body opens with 0x%02x, want the version byte 0x%02x", first, frameVersion)
	}
	var out request
	read, err := readRequestFrame(&buf, &out)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != read || wrote <= 4 {
		t.Errorf("frame byte counts: wrote %d, read %d", wrote, read)
	}
	if out.Op != in.Op || out.Collection != in.Collection || len(out.Keys) != 2 {
		t.Errorf("frame round trip = %+v", out)
	}
}

func TestFrameLimit(t *testing.T) {
	// A corrupted length header must be rejected, not allocated — with the
	// typed size violation every limit check shares.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var out request
	_, err := readRequestFrame(&buf, &out)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame = %v, want ErrFrameTooLarge", err)
	}
	var tooBig *FrameTooLargeError
	if !errors.As(err, &tooBig) || tooBig.Len != 0xFFFFFFFF {
		t.Errorf("typed error = %#v, want Len 0xFFFFFFFF", tooBig)
	}
}

func TestUnknownOp(t *testing.T) {
	srv, _ := newServedKV(t)
	resp := srv.dispatch(context.Background(), request{Op: "bogus"})
	if resp.Error == "" {
		t.Error("unknown op should produce an error response")
	}
}

func TestClientSurvivesServerRestart(t *testing.T) {
	db := kvstore.New("discount")
	db.Set("drop", "k1", "40%")
	store := connector.NewKeyValue(db)
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Get(context.Background(), "drop", "k1"); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address.
	srv.Close()
	srv2, err := Serve(store, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// The pooled connection is dead, so the first request may fail; the
	// client must recover on a subsequent attempt by dialing fresh.
	var got core.Object
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		got, lastErr = cli.Get(context.Background(), "drop", "k1")
		if lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("client did not recover after restart: %v", lastErr)
	}
	if value(got) != "40%" {
		t.Errorf("recovered Get = %v", got)
	}
}

func TestServerToleratesGarbageFrames(t *testing.T) {
	_, cli := newServedKV(t)
	// Open a raw connection and send garbage: the server must drop the
	// connection without harming other clients.
	raw, err := net.Dial("tcp", cli.addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0x00, 0x00, 0x00, 0x04, 'j', 'u', 'n', 'k'})
	raw.Close()
	if _, err := cli.Get(context.Background(), "drop", "k1"); err != nil {
		t.Errorf("healthy client affected by garbage frames: %v", err)
	}
}

// TestWireBytesRecorded verifies a client round trip attributes its frame
// sizes to the span on the context, and the profile derived from the trace
// sums them.
func TestWireBytesRecorded(t *testing.T) {
	_, cli := newServedKV(t)
	rctx, root := telemetry.StartSpan(context.Background(), "http /search")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	if _, err := cli.Get(rctx, "drop", "k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.GetBatch(rctx, "drop", []string{"k1", "k2", "k3"}); err != nil {
		t.Fatal(err)
	}
	p := explain.FromSpan(root)
	root.End()
	// Two round trips, each at least a 4-byte header + body per direction.
	if p.Totals.BytesSent <= 16 || p.Totals.BytesReceived <= 16 {
		t.Errorf("wire bytes = %d sent / %d received", p.Totals.BytesSent, p.Totals.BytesReceived)
	}
	// Traced requests carry the caller's traceparent; responses do not.
	if tp := int64(len(root.TraceParent())); p.Totals.BytesSent < 2*tp {
		t.Errorf("requests (%dB) too small to carry two %dB traceparents", p.Totals.BytesSent, tp)
	}

	// Without a span nothing panics and nothing is recorded anywhere.
	if _, err := cli.Get(context.Background(), "drop", "k1"); err != nil {
		t.Fatal(err)
	}
}
