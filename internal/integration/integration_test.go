// Package integration exercises the full QUEPA stack end to end: the
// generated Polyphony polystore served over the TCP wire protocol, dialed
// back through wire clients, wrapped with the distributed network profile,
// and queried in augmented mode with every execution strategy — the shape
// of the paper's distributed deployment, in one process.
package integration

import (
	"context"
	"fmt"
	"testing"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/netsim"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

var ctx = context.Background()

// remotePolystore builds a workload polystore, serves every database over
// TCP, and returns a polystore of wire clients plus a shutdown function.
func remotePolystore(t *testing.T, profile netsim.Profile) (*core.Polystore, *aindex.Index, *workload.Built, func()) {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Artists = 12
	spec.AlbumsPerArtist = 3
	spec.ReplicaRounds = 1
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}

	remote := core.NewPolystore()
	var servers []*wire.Server
	var clients []*wire.Client
	for _, name := range built.Databases() {
		s, err := built.Poly.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := wire.Serve(s, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		cli, err := wire.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cli)
		var store core.Store = cli
		if profile != (netsim.Profile{}) {
			store = netsim.Wrap(cli, profile, nil)
		}
		if err := remote.Register(store); err != nil {
			t.Fatal(err)
		}
	}
	shutdown := func() {
		for _, c := range clients {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}
	return remote, built.Index, built, shutdown
}

// TestRemoteMatchesLocal is the core integration property: an augmented
// search through TCP wire clients returns exactly the answer the in-process
// polystore returns, for every strategy.
func TestRemoteMatchesLocal(t *testing.T) {
	remote, index, built, shutdown := remotePolystore(t, netsim.Profile{})
	defer shutdown()

	query, err := built.Query("transactions", 8)
	if err != nil {
		t.Fatal(err)
	}
	reference := signature(t, augment.New(built.Poly, index, augment.Config{Strategy: augment.Sequential}), query)

	for _, cfg := range []augment.Config{
		{Strategy: augment.Sequential},
		{Strategy: augment.Batch, BatchSize: 16},
		{Strategy: augment.Inner, ThreadsSize: 4},
		{Strategy: augment.Outer, ThreadsSize: 4},
		{Strategy: augment.OuterBatch, BatchSize: 16, ThreadsSize: 4},
		{Strategy: augment.OuterInner, ThreadsSize: 4},
	} {
		got := signature(t, augment.New(remote, index, cfg), query)
		if got != reference {
			t.Errorf("%v over TCP differs from local:\n got  %s\n want %s", cfg, got, reference)
		}
	}
}

func signature(t *testing.T, aug *augment.Augmenter, query string) string {
	t.Helper()
	answer, err := aug.Search(ctx, "transactions", query, 1)
	if err != nil {
		t.Fatal(err)
	}
	sig := fmt.Sprintf("orig=%d;", len(answer.Original))
	for _, ao := range answer.Augmented {
		sig += fmt.Sprintf("%s:%.5f;", ao.Object.GK, ao.Prob)
	}
	return sig
}

// TestValidatorRewriteOverWire: the key-column rewrite works through the
// wire protocol's keyfield op.
func TestValidatorRewriteOverWire(t *testing.T) {
	remote, index, _, shutdown := remotePolystore(t, netsim.Profile{})
	defer shutdown()
	aug := augment.New(remote, index, augment.Config{Strategy: augment.Sequential})
	answer, err := aug.Search(ctx, "transactions", `SELECT name FROM inventory WHERE seq < 2`, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range answer.Original {
		if _, ok := o.Fields.Get("id"); !ok {
			t.Errorf("rewritten projection lacks id over wire: %v", o)
		}
	}
}

// TestServerShutdownDegradesGracefully: killing a store's server mid-flight
// turns augmented searches into partial answers — the dead store is reported
// in the degraded section while the rest of the polystore keeps answering.
func TestServerShutdownDegradesGracefully(t *testing.T) {
	remote, index, built, shutdown := remotePolystore(t, netsim.Profile{})
	defer shutdown()

	query, err := built.Query("transactions", 4)
	if err != nil {
		t.Fatal(err)
	}
	aug := augment.New(remote, index, augment.Config{Strategy: augment.OuterBatch, BatchSize: 8, ThreadsSize: 4})
	if _, err := aug.Search(ctx, "transactions", query, 0); err != nil {
		t.Fatalf("healthy search failed: %v", err)
	}

	// Kill the catalogue server: its objects are part of every album's
	// identity class, so the augmentation must hit the dead connection.
	// Rebuild a polystore where catalogue points at a closed address.
	dead, err := built.Poly.Database("catalogue")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.Serve(dead, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // server is now gone; the client's pool is stale
	cli.Close()

	broken := core.NewPolystore()
	for _, name := range remote.Databases() {
		if name == "catalogue" {
			if err := broken.Register(cli); err != nil {
				t.Fatal(err)
			}
			continue
		}
		s, err := remote.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := broken.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	aug = augment.New(broken, index, augment.Config{Strategy: augment.OuterBatch, BatchSize: 8, ThreadsSize: 4})
	answer, err := aug.Search(ctx, "transactions", query, 0)
	if err != nil {
		t.Fatalf("search over a dead store aborted instead of degrading: %v", err)
	}
	if len(answer.Degraded) != 1 || answer.Degraded[0].Store != "catalogue" {
		t.Errorf("degraded = %v, want the catalogue store", answer.Degraded)
	}
	if len(answer.Original) == 0 {
		t.Error("original results lost in the partial answer")
	}
}

// TestDistributedBatchingSavesTime reproduces the paper's core distributed
// claim end to end over real TCP: the batched augmenter is much faster than
// the sequential one under cross-region latency.
func TestDistributedBatchingSavesTime(t *testing.T) {
	profile := netsim.Profile{RoundTrip: 2 * time.Millisecond}
	remote, index, built, shutdown := remotePolystore(t, profile)
	defer shutdown()

	query, err := built.Query("transactions", 12)
	if err != nil {
		t.Fatal(err)
	}
	// frames counts the request frames every wire client has written.
	frames := func() (n uint64) {
		for _, name := range remote.Databases() {
			st, err := remote.Database(name)
			if err != nil {
				t.Fatal(err)
			}
			n += st.(*netsim.Store).Unwrap().(*wire.Client).Frames()
		}
		return n
	}
	run := func(cfg augment.Config) (time.Duration, uint64) {
		aug := augment.New(remote, index, cfg)
		before := frames()
		start := time.Now()
		if _, err := aug.Search(ctx, "transactions", query, 0); err != nil {
			t.Fatal(err)
		}
		return time.Since(start), frames() - before
	}
	seq, seqFrames := run(augment.Config{Strategy: augment.Sequential})
	batch, batchFrames := run(augment.Config{Strategy: augment.Batch, BatchSize: 1000})
	t.Logf("sequential %v in %d frames, batch %v in %d frames", seq, seqFrames, batch, batchFrames)
	// The deterministic half of the claim: one query frame plus one get per
	// candidate key (120 frames on this fixture), against one query frame
	// plus one getbatch per (store, collection) (10 frames).
	if seqFrames < 6*batchFrames {
		t.Errorf("batching saved too few round trips: sequential %d frames vs batch %d", seqFrames, batchFrames)
	}
	// The timing half, and why 3× is safe. Both strategies send their frames
	// one after another and each frame sleeps RoundTrip (2 ms), so sequential
	// takes at least 2 ms × 120 = 240 ms and batch 2 ms × 10 = 20 ms plus CPU.
	// Failing needs batch > seq/3 ≥ 80 ms: 60 ms of CPU and loopback I/O on
	// top of its 20 ms of sleeps, for a few dozen in-process lookups. With
	// seqFrames ≥ 6 × batchFrames in general, batch must spend over a whole
	// extra round trip per frame outside its sleeps.
	if batch*3 > seq {
		t.Errorf("batching saved too little over TCP: sequential %v vs batch %v", seq, batch)
	}
}

// TestLazyDeletionOverWire: deleting an object behind the wire makes the
// augmenter drop it and remove it from the index, exactly as in-process.
func TestLazyDeletionOverWire(t *testing.T) {
	remote, index, built, shutdown := remotePolystore(t, netsim.Profile{})
	defer shutdown()

	victim := core.NewGlobalKey("catalogue", "albums", "d1")
	if !index.Contains(victim) {
		t.Fatal("fixture broken: d1 not indexed")
	}
	// Delete through the local engine (the server shares it).
	local, err := built.Poly.Database("catalogue")
	if err != nil {
		t.Fatal(err)
	}
	_ = local
	// The docstore connector has no delete in its query language; remove
	// via the engine by rebuilding is overkill — fetch the underlying
	// object list through the polystore and delete directly using the
	// generated spec's docstore. Simplest: issue Get over the wire to pin
	// behavior, then remove via the in-process store handle.
	if _, err := remote.Fetch(ctx, victim); err != nil {
		t.Fatalf("pre-delete fetch failed: %v", err)
	}
	deleteFromDocstore(t, built, "catalogue", "albums", "d1")

	query, err := built.Query("transactions", 3)
	if err != nil {
		t.Fatal(err)
	}
	aug := augment.New(remote, index, augment.Config{Strategy: augment.Batch, BatchSize: 8})
	answer, err := aug.Search(ctx, "transactions", query, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ao := range answer.Augmented {
		if ao.Object.GK == victim {
			t.Error("deleted object still in remote answer")
		}
	}
	if index.Contains(victim) {
		t.Error("deleted object not lazily removed from the index over wire")
	}
}

// deleteFromDocstore digs the document engine out of the workload fixture.
func deleteFromDocstore(t *testing.T, built *workload.Built, db, collection, id string) {
	t.Helper()
	s, err := built.Poly.Database(db)
	if err != nil {
		t.Fatal(err)
	}
	eng, ok := s.(*connector.Document)
	if !ok {
		t.Fatalf("store %T is not a document connector", s)
	}
	if !eng.Engine().Delete(collection, id) {
		t.Fatal("delete failed")
	}
}
