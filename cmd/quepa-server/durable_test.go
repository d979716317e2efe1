package main

import (
	"context"
	"net"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"quepa/internal/core"
	"quepa/internal/server"
	"quepa/internal/wal"
)

// TestOpenDurableSeedsThenRecovers pins the startup contract: a fresh
// directory is seeded from the built index, and a second boot on the same
// directory recovers that exact index — including mutations journaled after
// the seed — instead of using the freshly generated one.
func TestOpenDurableSeedsThenRecovers(t *testing.T) {
	dir := t.TempDir()
	built := smallWorkload(t)
	s := mustNew(t, server.Config{Workload: built, DataDir: dir, Fsync: wal.FsyncAlways})
	if rec := durability(t, s)["recovery"].(map[string]any); rec["recovered"] != false {
		t.Fatalf("fresh dir recovered: %v", rec)
	}
	// Mutate through the index the server uses: the journal must pick this
	// up without any explicit WAL call at the mutation site.
	rel := core.NewIdentity(
		core.MustParseGlobalKey("durable.probe.a"),
		core.MustParseGlobalKey("durable.probe.b"), 0.9)
	if err := built.Index.Insert(rel); err != nil {
		t.Fatal(err)
	}
	want := built.Index.Edges()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Second boot: generator output differs in object but the durable state
	// must win.
	built2 := smallWorkload(t)
	fresh := built2.Index
	s2 := mustNew(t, server.Config{Workload: built2, DataDir: dir, Fsync: wal.FsyncAlways})
	rec := durability(t, s2)["recovery"].(map[string]any)
	if rec["recovered"] != true {
		t.Fatalf("second boot did not recover: %v", rec)
	}
	if built2.Index == fresh {
		t.Fatal("recovered index was not installed into the workload")
	}
	if !reflect.DeepEqual(built2.Index.Edges(), want) {
		t.Fatalf("recovered edges:\n got %v\nwant %v", built2.Index.Edges(), want)
	}
	// Clean shutdown means nothing to replay.
	if rec["replayed_batches"] != float64(0) {
		t.Fatalf("clean restart replayed %v batches", rec["replayed_batches"])
	}
}

// TestOpenDurableDisabled: no data dir, no WAL.
func TestOpenDurableDisabled(t *testing.T) {
	s := newTestServer(t)
	if dur := durability(t, s); dur["enabled"] != false {
		t.Fatalf("durability without a data dir = %v, want disabled", dur)
	}
}

// durability returns the /stats durability section.
func durability(t *testing.T, s *server.Server) map[string]any {
	t.Helper()
	dur, ok := stats(t, s)["durability"].(map[string]any)
	if !ok {
		t.Fatal("stats missing durability section")
	}
	return dur
}

// TestServeUntilDrainsThenFlushes is the shutdown-ordering test: cancelling
// the context must (1) let an in-flight request finish, (2) run the hooks
// only after HTTP has drained, and (3) leave the WAL closed cleanly so the
// next boot replays nothing.
func TestServeUntilDrainsThenFlushes(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, server.Config{Workload: smallWorkload(t), DataDir: dir, Fsync: wal.FsyncOff})

	inHandler := make(chan struct{})
	release := make(chan struct{})
	var handlerFinished, hookAfterDrain atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
		w.WriteHeader(http.StatusOK)
		handlerFinished.Store(true)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	handlerDone := make(chan error, 1)
	go func() {
		served <- serveUntil(ctx, &http.Server{Handler: mux}, ln, 5*time.Second,
			func() error {
				// Runs only after Shutdown returned, i.e. after /slow finished.
				hookAfterDrain.Store(handlerFinished.Load())
				return nil
			},
			s.Close)
	}()

	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err == nil {
			resp.Body.Close()
		}
		handlerDone <- err
	}()
	<-inHandler
	cancel()                          // SIGTERM equivalent, while /slow is in flight
	time.Sleep(20 * time.Millisecond) // let Shutdown start draining
	close(release)
	if err := <-handlerDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if !hookAfterDrain.Load() {
		t.Fatal("shutdown hook ran before the in-flight request completed")
	}

	m2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Abort()
	if rec := m2.Recovery(); !rec.Recovered || rec.ReplayedBatches != 0 {
		t.Fatalf("after graceful shutdown: recovered=%v replayed=%d, want clean checkpointed state",
			rec.Recovered, rec.ReplayedBatches)
	}
}

// TestStatsAndHealthzExposeDurability checks the HTTP surface in both modes.
func TestStatsAndHealthzExposeDurability(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, server.Config{Workload: smallWorkload(t), DataDir: dir, Fsync: wal.FsyncAlways})

	dur := durability(t, s)
	if dur["dir"] != dir || dur["fsync"] != wal.FsyncAlways {
		t.Fatalf("durability section = %v", dur)
	}

	code, hz := do(t, s.Handler(), "GET", "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz with healthy WAL = %d", code)
	}
	if _, ok := hz["durable_epoch"]; !ok {
		t.Fatalf("healthz missing durable_epoch: %v", hz)
	}

	// Without a WAL the sections degrade gracefully.
	s = newTestServer(t)
	if dur := durability(t, s); dur["enabled"] != false {
		t.Fatalf("in-memory durability section = %v", dur)
	}
	if _, hz := do(t, s.Handler(), "GET", "/healthz"); hz["durable_epoch"] != nil {
		t.Fatalf("in-memory healthz reports a durable epoch: %v", hz)
	}
}
