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
	seeded := built.Index
	s := mustNew(t, server.Config{Workload: built, DataDir: dir, Fsync: wal.FsyncAlways})
	if built.Index != seeded {
		t.Fatal("fresh dir replaced the built index: it recovered instead of seeding")
	}
	// Mutate through the index the server uses: the journal must pick this
	// up without any explicit WAL call at the mutation site.
	rel := core.NewIdentity(
		core.MustParseGlobalKey("durable.probe.a"),
		core.MustParseGlobalKey("durable.probe.b"), 0.9)
	if err := built.Index.Insert(rel); err != nil {
		t.Fatal(err)
	}
	want, wantEpoch := built.Index.Edges(), built.Index.Epoch()
	replayed := metric(t, s.Handler(), "quepa_recovery_replayed_records_total")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Second boot: generator output differs in object but the durable state
	// must win.
	built2 := smallWorkload(t)
	fresh := built2.Index
	s2 := mustNew(t, server.Config{Workload: built2, DataDir: dir, Fsync: wal.FsyncAlways})
	if built2.Index == fresh {
		t.Fatal("recovered index was not installed into the workload")
	}
	if !reflect.DeepEqual(built2.Index.Edges(), want) {
		t.Fatalf("recovered edges:\n got %v\nwant %v", built2.Index.Edges(), want)
	}
	// The recovered state is durable up to the mutation's epoch.
	if _, hz := do(t, s2.Handler(), "GET", "/healthz"); hz["durable_epoch"] != float64(wantEpoch) {
		t.Fatalf("healthz durable_epoch after recovery = %v, want %d", hz["durable_epoch"], wantEpoch)
	}
	// Clean shutdown means nothing to replay: the shutdown checkpoint covers
	// the whole log.
	h := s2.Handler()
	if got := metric(t, h, "quepa_recovery_replayed_records_total"); got != replayed {
		t.Fatalf("clean restart replayed %v batches", got-replayed)
	}
	if ckpt, last := metric(t, h, "quepa_wal_checkpoint_epoch"), metric(t, h, "quepa_wal_last_epoch"); ckpt != last || ckpt != float64(wantEpoch) {
		t.Fatalf("checkpoint epoch %v, last epoch %v, want both %d", ckpt, last, wantEpoch)
	}
}

// TestOpenDurableDisabled: no data dir, no WAL, so no durable epoch.
func TestOpenDurableDisabled(t *testing.T) {
	s := newTestServer(t)
	if _, hz := do(t, s.Handler(), "GET", "/healthz"); hz["durable_epoch"] != nil {
		t.Fatalf("in-memory healthz reports a durable epoch: %v", hz)
	}
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

// TestStatsAndHealthzExposeDurability checks the HTTP surface in both modes:
// the WAL's state is on /metrics and /healthz, never on /stats.
func TestStatsAndHealthzExposeDurability(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, server.Config{Workload: smallWorkload(t), DataDir: dir, Fsync: wal.FsyncAlways})
	h := s.Handler()

	code, hz := do(t, h, "GET", "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz with healthy WAL = %d", code)
	}
	if durable := metric(t, h, "quepa_wal_durable_epoch"); hz["durable_epoch"] != durable {
		t.Fatalf("healthz durable_epoch = %v, quepa_wal_durable_epoch = %v", hz["durable_epoch"], durable)
	}
	if segments := metric(t, h, "quepa_wal_segments"); segments < 1 {
		t.Errorf("quepa_wal_segments = %v, want the active segment", segments)
	}
	if bytes := metric(t, h, "quepa_wal_last_checkpoint_bytes"); bytes == 0 {
		t.Error("quepa_wal_last_checkpoint_bytes = 0 after the seed checkpoint")
	}
	if _, ok := stats(t, s)["durability"]; ok {
		t.Error("/stats still carries a durability section")
	}

	// Without a WAL /healthz carries no durable epoch.
	s = newTestServer(t)
	if _, hz := do(t, s.Handler(), "GET", "/healthz"); hz["durable_epoch"] != nil {
		t.Fatalf("in-memory healthz reports a durable epoch: %v", hz)
	}
}
