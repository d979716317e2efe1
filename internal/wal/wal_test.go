package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"quepa/internal/aindex"
	"quepa/internal/core"
	"quepa/internal/telemetry"
)

func gk(s string) core.GlobalKey { return core.MustParseGlobalKey(s) }

// rel derives a deterministic p-relation from an op number. The target keys
// collide (i%13) so identity closure fires during replay, exercising the
// OpInsert path where recovery re-derives closure edges rather than reading
// them from the log.
func rel(i int) core.PRelation {
	from := gk(fmt.Sprintf("pg.users.u%d", i))
	to := gk(fmt.Sprintf("mongo.profiles.p%d", i%13))
	typ := core.Identity
	if i%3 == 1 {
		typ = core.Matching
	}
	return core.PRelation{From: from, To: to, Type: typ, Prob: 0.5 + float64(i%50)/100}
}

// applyOps replays ops 0..n-1 of the deterministic workload into a fresh
// index: inserts, with every 10th op removing the object inserted 5 ops ago.
func applyOps(t testing.TB, n int) *aindex.Index {
	t.Helper()
	ix := aindex.New()
	for i := 0; i < n; i++ {
		doOp(t, ix, i)
	}
	return ix
}

func doOp(t testing.TB, ix *aindex.Index, i int) {
	t.Helper()
	if i%10 == 9 {
		ix.RemoveObject(rel(i - 5).From)
		return
	}
	if err := ix.Insert(rel(i)); err != nil {
		t.Fatalf("insert op %d: %v", i, err)
	}
}

func wantEdges(t testing.TB, got *aindex.Index, want *aindex.Index, msg string) {
	t.Helper()
	g, w := got.Edges(), want.Edges()
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: edge lists differ: got %d edges %v, want %d edges %v", msg, len(g), g, len(w), w)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []aindex.JournalOp{
		{Kind: aindex.OpInsert, Rel: rel(0)},
		{Kind: aindex.OpInsertRaw, Rel: rel(1)},
		{Kind: aindex.OpRemove, Key: gk("pg.users.u0")},
	}
	frame := appendBatch(nil, 42, ops)
	b, err := parseBatch(frame[frameOverhead:])
	if err != nil {
		t.Fatalf("parseBatch: %v", err)
	}
	if b.epoch != 42 || !reflect.DeepEqual(b.ops, ops) {
		t.Fatalf("round trip mismatch: %+v", b)
	}

	hdr := appendHeader(nil, 7)
	base, err := parseHeader(hdr[frameOverhead:])
	if err != nil || base != 7 {
		t.Fatalf("header round trip: base=%d err=%v", base, err)
	}
}

func TestParseBatchRejectsCorruptOps(t *testing.T) {
	cases := []struct {
		name string
		ops  []aindex.JournalOp
	}{
		{"nan prob", []aindex.JournalOp{{Kind: aindex.OpInsert, Rel: core.PRelation{
			From: gk("a.b.1"), To: gk("a.b.2"), Type: core.Identity, Prob: nan()}}}},
		{"bad type", []aindex.JournalOp{{Kind: aindex.OpInsert, Rel: core.PRelation{
			From: gk("a.b.1"), To: gk("a.b.2"), Type: core.RelType(9), Prob: 0.5}}}},
		{"unknown kind", []aindex.JournalOp{{Kind: aindex.OpKind(99)}}},
	}
	for _, tc := range cases {
		frame := appendBatch(nil, 1, tc.ops)
		if _, err := parseBatch(frame[frameOverhead:]); err == nil {
			t.Errorf("%s: parseBatch accepted a corrupt op", tc.name)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// seedManager opens a fresh manager in dir and seeds it with an empty index.
func seedManager(t testing.TB, dir string, opts Options) *Manager {
	t.Helper()
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if m.Recovered() {
		t.Fatalf("fresh dir claims recovery")
	}
	if err := m.Seed(aindex.New()); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return m
}

func TestCleanShutdownAndReopen(t *testing.T) {
	dir := t.TempDir()
	m := seedManager(t, dir, Options{Fsync: FsyncOff})
	const n = 73
	for i := 0; i < n; i++ {
		doOp(t, m.Index(), i)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if !m2.Recovered() {
		t.Fatalf("reopen did not recover")
	}
	// Clean shutdown checkpoints everything: replay should find only batches
	// at or below the fence.
	if st := m2.Recovery(); st.ReplayedBatches != 0 {
		t.Errorf("clean shutdown still replayed %d batches", st.ReplayedBatches)
	}
	// The recovered state came off stable storage: the durability watermark
	// must start at the recovered epoch, not at zero.
	if st := m2.Stats(); st.DurableEpoch != st.LastEpoch {
		t.Errorf("post-recovery durable epoch %d != last epoch %d", st.DurableEpoch, st.LastEpoch)
	}
	wantEdges(t, m2.Index(), applyOps(t, n), "clean reopen")

	// The recovered index must keep journaling: mutate, close, reopen again.
	for i := n; i < n+20; i++ {
		doOp(t, m2.Index(), i)
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
	m3, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("reopen 2: %v", err)
	}
	defer m3.Close()
	wantEdges(t, m3.Index(), applyOps(t, n+20), "second reopen")
}

func TestAbortReplaysTail(t *testing.T) {
	dir := t.TempDir()
	m := seedManager(t, dir, Options{Fsync: FsyncOff})
	const n = 57
	for i := 0; i < n; i++ {
		doOp(t, m.Index(), i)
	}
	m.Abort() // no final checkpoint: reopen must replay the whole tail

	m2, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	st := m2.Recovery()
	if st.ReplayedBatches == 0 {
		t.Fatalf("abort reopen replayed nothing: %+v", st)
	}
	wantEdges(t, m2.Index(), applyOps(t, n), "abort reopen")
}

func TestMidRunCheckpointFencesReplay(t *testing.T) {
	dir := t.TempDir()
	m := seedManager(t, dir, Options{Fsync: FsyncOff})
	for i := 0; i < 30; i++ {
		doOp(t, m.Index(), i)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 30; i < 50; i++ {
		doOp(t, m.Index(), i)
	}
	m.Abort()

	m2, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	st := m2.Recovery()
	// Exactly the 20 post-checkpoint batches replay; the 30 earlier ones are
	// inside the checkpoint and must be skipped, because replaying an
	// already-applied insert against a mutated index is not idempotent.
	if st.ReplayedBatches != 20 {
		t.Errorf("replayed %d batches, want 20 (stats %+v)", st.ReplayedBatches, st)
	}
	wantEdges(t, m2.Index(), applyOps(t, 50), "fenced reopen")
}

func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	m := seedManager(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 512, RetainSegments: 1, RetainCheckpoints: 1})
	const n = 300
	for i := 0; i < n; i++ {
		doOp(t, m.Index(), i)
	}
	segsBefore := countFiles(t, dir, "wal-")
	if segsBefore < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", segsBefore)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	segsAfter := countFiles(t, dir, "wal-")
	if segsAfter >= segsBefore {
		t.Errorf("retention kept all %d segments (was %d)", segsAfter, segsBefore)
	}
	if cps := countFiles(t, dir, "checkpoint-"); cps > 1 {
		t.Errorf("retention kept %d checkpoints, want 1", cps)
	}
	m.Abort()

	m2, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	wantEdges(t, m2.Index(), applyOps(t, n), "post-retention reopen")
}

func TestCheckpointOnlyDirectory(t *testing.T) {
	dir := t.TempDir()
	m := seedManager(t, dir, Options{Fsync: FsyncOff})
	for i := 0; i < 25; i++ {
		doOp(t, m.Index(), i)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate an aggressive cleanup that deleted every segment but kept the
	// final checkpoint: recovery must still work from the checkpoint alone.
	for _, f := range listFiles(t, dir, "wal-") {
		os.Remove(filepath.Join(dir, f))
	}
	m2, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	wantEdges(t, m2.Index(), applyOps(t, 25), "checkpoint-only reopen")
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	m := seedManager(t, dir, Options{Fsync: FsyncOff, RetainCheckpoints: 4})
	for i := 0; i < 20; i++ {
		doOp(t, m.Index(), i)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 20; i < 40; i++ {
		doOp(t, m.Index(), i)
	}
	if err := m.Close(); err != nil { // final checkpoint is the newest
		t.Fatalf("close: %v", err)
	}
	// Corrupt the newest checkpoint; recovery must fall back to the previous
	// one and replay the tail batches past its fence.
	names := listFiles(t, dir, "checkpoint-")
	newest := names[len(names)-1]
	b, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, newest), b, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	st := m2.Recovery()
	if st.CorruptCheckpoints != 1 {
		t.Errorf("CorruptCheckpoints = %d, want 1", st.CorruptCheckpoints)
	}
	if st.ReplayedBatches == 0 {
		t.Errorf("fallback recovery replayed nothing")
	}
	wantEdges(t, m2.Index(), applyOps(t, 40), "fallback reopen")
}

func TestStatsSurface(t *testing.T) {
	dir := t.TempDir()
	appends, checkpoints := walAppends.Value(), walCheckpoints.Value()
	m := seedManager(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 10; i++ {
		doOp(t, m.Index(), i)
	}
	if got := walAppends.Value() - appends; got != 10 {
		t.Errorf("quepa_wal_appends_total grew by %d, want 10", got)
	}
	if walCheckpoints.Value() == checkpoints {
		t.Error("seed checkpoint not counted by quepa_checkpoints_total")
	}
	s := m.Stats()
	if s.Fsync != FsyncAlways {
		t.Errorf("Fsync = %q", s.Fsync)
	}
	// fsync=always makes every batch durable immediately.
	if s.DurableEpoch != s.LastEpoch || s.LastEpoch == 0 {
		t.Errorf("DurableEpoch=%d LastEpoch=%d, want equal and nonzero", s.DurableEpoch, s.LastEpoch)
	}
	if s.CheckpointBytes == 0 {
		t.Errorf("seed checkpoint not reflected in stats: %+v", s)
	}
	reg := telemetry.NewRegistry()
	m.RegisterMetrics(reg)
	var out strings.Builder
	reg.WritePrometheus(&out)
	for _, want := range []string{
		fmt.Sprintf("quepa_wal_segments %d\n", s.Segments),
		fmt.Sprintf("quepa_wal_last_epoch %d\n", s.LastEpoch),
		fmt.Sprintf("quepa_wal_durable_epoch %d\n", s.DurableEpoch),
		fmt.Sprintf("quepa_wal_last_checkpoint_bytes %d\n", s.CheckpointBytes),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, out.String())
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func listFiles(t testing.TB, dir, prefix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && len(e.Name()) >= len(prefix) && e.Name()[:len(prefix)] == prefix {
			out = append(out, e.Name())
		}
	}
	return out
}

func countFiles(t testing.TB, dir, prefix string) int { return len(listFiles(t, dir, prefix)) }
