// Package wal is QUEPA's durability subsystem: a segmented write-ahead log of
// A' index mutations plus periodic checkpoints of the full index, giving the
// server a persistent mode that survives crashes.
//
// The design in one paragraph: the Manager installs itself as the index's
// aindex.Journal, so every mutation — explicit inserts, the augmenter's lazy
// deletions, path promotions — is appended to the log as one CRC-framed batch
// record carrying the mutation's epoch, from inside the index write
// critical section (log order is application order). Checkpoints persist the
// canonical edge list in the versioned binary snapshot format of
// internal/aindex/persist.go, stamped with the epoch read atomically with the
// edges. Recovery loads the newest
// valid checkpoint, replays exactly the log batches with epoch greater than
// the checkpoint's fence, truncates the log at the first torn record, and
// advances the index epoch past everything replayed — so a crash at any
// instant recovers the index to the last committed batch, never to a
// half-applied one.
//
// Durability knobs follow the usual WAL taxonomy: fsync "always" syncs the
// segment after every batch (group-commit-free, slow, zero loss), "interval"
// syncs on a background ticker (bounded loss window), "off" leaves syncing to
// the OS (crash-consistent but lossy). Segments rotate at a size threshold;
// checkpoints render older segments dead weight, and retention deletes
// segments wholly below the newest checkpoint's fence, keeping a configurable
// safety margin.
package wal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/telemetry"
)

// Fsync policies.
const (
	// FsyncInterval syncs the active segment on a background ticker
	// (Options.FsyncEvery). Crash loss is bounded by the interval.
	FsyncInterval = "interval"
	// FsyncAlways syncs after every appended batch. No committed mutation is
	// ever lost, at the cost of one fsync per mutation.
	FsyncAlways = "always"
	// FsyncOff never syncs explicitly; the OS flushes when it pleases.
	FsyncOff = "off"
)

// ParseFsyncPolicy validates a -fsync flag value.
func ParseFsyncPolicy(s string) (string, error) {
	switch s {
	case FsyncInterval, FsyncAlways, FsyncOff:
		return s, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want %s, %s or %s)",
		s, FsyncAlways, FsyncInterval, FsyncOff)
}

// Options configures a Manager. The zero value is usable: interval fsync
// every 100ms, 8 MiB segments, two retained sealed segments and checkpoints.
type Options struct {
	// Fsync is the sync policy: FsyncAlways, FsyncInterval or FsyncOff.
	Fsync string
	// FsyncEvery is the FsyncInterval ticker period.
	FsyncEvery time.Duration
	// SegmentBytes rotates the active segment once it grows past this size.
	SegmentBytes int64
	// RetainSegments is how many sealed segments already subsumed by a
	// checkpoint are kept anyway, as a safety margin against a corrupt
	// checkpoint. Fully live segments are never deleted.
	RetainSegments int
	// RetainCheckpoints is how many checkpoint files are kept; older ones are
	// deleted after a new checkpoint lands.
	RetainCheckpoints int
}

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.RetainSegments <= 0 {
		o.RetainSegments = 2
	}
	if o.RetainCheckpoints <= 0 {
		o.RetainCheckpoints = 2
	}
	return o
}

var (
	walAppends = telemetry.NewCounter("quepa_wal_appends_total",
		"Batch records appended to the write-ahead log.")
	walAppendBytes = telemetry.NewCounter("quepa_wal_append_bytes_total",
		"Bytes appended to the write-ahead log.")
	walErrors = telemetry.NewCounter("quepa_wal_errors_total",
		"Write or sync failures on the write-ahead log.")
	walFsync = telemetry.NewHistogram("quepa_wal_fsync_seconds",
		"Latency of fsync calls on the active WAL segment.", nil)
	walReplayed = telemetry.NewCounter("quepa_recovery_replayed_records_total",
		"WAL batch records replayed during crash recovery.")
	walCheckpoints = telemetry.NewCounter("quepa_checkpoints_total",
		"Checkpoint snapshots written.")
	walCheckpointDur = telemetry.NewHistogram("quepa_checkpoint_duration_seconds",
		"Wall time of checkpoint writes.", nil)
)

// segment is one log file, identified by its ascending sequence number and
// the epoch fence recorded in its header: every batch in earlier segments has
// epoch <= baseEpoch, every batch in this segment has epoch > baseEpoch.
type segment struct {
	seq       uint64
	baseEpoch uint64
}

func segmentName(seq uint64) string      { return fmt.Sprintf("wal-%016d.log", seq) }
func checkpointName(epoch uint64) string { return fmt.Sprintf("checkpoint-%016x.ckpt", epoch) }

// Manager owns a data directory: the segmented log, the checkpoint files and
// the journal hook into one A' index. It is safe for concurrent use; Log is
// additionally serialized by the index write lock that all callers hold.
type Manager struct {
	dir  string
	opts Options
	ix   *aindex.Index

	mu        sync.Mutex // guards the fields below
	f         *os.File   // active segment
	segments  []segment  // ascending by seq; last is the active one
	segSize   int64
	lastEpoch uint64 // epoch of the newest appended batch (or the seed fence)
	dirty     bool   // unsynced bytes in the active segment
	scratch   []byte
	closed    bool
	err       error // first write/sync failure; sticky

	durableEpoch atomic.Uint64 // newest epoch known to be on stable storage

	ckptMu        sync.Mutex // serializes checkpoint writes
	ckptEpoch     atomic.Uint64
	ckptLastBytes atomic.Int64

	recovery RecoveryStats

	stopOnce  sync.Once
	stopFsync chan struct{}
	fsyncDone chan struct{}
}

// Open attaches to a data directory, creating it if needed. If the directory
// holds a previous incarnation's checkpoints or log segments, Open recovers
// the index from them (Recovered reports true and Index returns the rebuilt
// index, already journaled). On a fresh directory the Manager starts empty
// and the caller must Seed it with an index before mutations flow.
func Open(dir string, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	m := &Manager{
		dir:       dir,
		opts:      opts,
		stopFsync: make(chan struct{}),
		fsyncDone: make(chan struct{}),
	}
	ckpts, segs, err := m.scanDir()
	if err != nil {
		return nil, err
	}
	if len(ckpts) == 0 && len(segs) == 0 {
		close(m.fsyncDone) // no loop running yet; Seed starts it
		return m, nil
	}
	if err := m.recover(ckpts, segs); err != nil {
		return nil, err
	}
	m.startFsyncLoop()
	return m, nil
}

// scanDir lists checkpoint epochs (ascending) and segments (ascending by
// sequence number) present in the data directory.
func (m *Manager) scanDir() (ckpts []uint64, segs []uint64, err error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: read data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(e.Name(), "checkpoint-%016x.ckpt", &v); err == nil && e.Name() == checkpointName(v) {
			ckpts = append(ckpts, v)
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "wal-%016d.log", &v); err == nil && e.Name() == segmentName(v) {
			segs = append(segs, v)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs, nil
}

// Seed adopts ix as the durable index of a fresh data directory: it writes an
// initial checkpoint at the index's current epoch, opens the first log
// segment and installs the journal. It is an error to Seed a Manager that
// recovered existing state.
func (m *Manager) Seed(ix *aindex.Index) error {
	m.mu.Lock()
	if m.ix != nil {
		m.mu.Unlock()
		return fmt.Errorf("wal: data dir %s already holds an index", m.dir)
	}
	m.ix = ix
	_, epoch := ix.EdgesWithEpoch()
	m.lastEpoch = epoch
	if err := m.openSegmentLocked(1, epoch); err != nil {
		m.ix = nil
		m.mu.Unlock()
		return err
	}
	m.mu.Unlock()
	if err := m.Checkpoint(); err != nil {
		return err
	}
	// The seed state is checkpointed (and the checkpoint fsynced), so the
	// durability watermark starts at the seed epoch.
	m.durableEpoch.Store(epoch)
	ix.SetJournal(m)
	m.fsyncDone = make(chan struct{}) // Open closed the idle one on the fresh-dir path
	m.startFsyncLoop()
	return nil
}

// openSegmentLocked creates segment seq with the given epoch fence and makes
// it the active file. Caller holds m.mu.
func (m *Manager) openSegmentLocked(seq, baseEpoch uint64) error {
	f, err := os.OpenFile(filepath.Join(m.dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := appendHeader(nil, baseEpoch)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	m.f = f
	m.segSize = int64(len(hdr))
	m.segments = append(m.segments, segment{seq: seq, baseEpoch: baseEpoch})
	return nil
}

// Index returns the index this manager journals (nil before Seed on a fresh
// directory).
func (m *Manager) Index() *aindex.Index {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ix
}

// Recovered reports whether Open rebuilt an index from existing durable
// state.
func (m *Manager) Recovered() bool { return m.recovery.Recovered }

// Recovery returns the statistics of the recovery Open performed (zero value
// when the directory was fresh).
func (m *Manager) Recovery() RecoveryStats { return m.recovery }

// Err returns the first write or sync failure the log has hit, if any. The
// journal interface cannot return errors to mutators, so failures are sticky
// and surfaced here (and in /healthz).
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Log appends one epoch-fenced batch outside any request: LogCtx with
// context.Background().
func (m *Manager) Log(ops []aindex.JournalOp, epoch uint64) {
	m.LogCtx(context.Background(), ops, epoch)
}

// LogCtx implements aindex.Journal: append one epoch-fenced batch. It runs
// inside the index write critical section, so batches land in application
// order with strictly increasing epochs. When the mutating request is
// traced, the append (and, under fsync=always, the fsync) appears as spans
// inside that request's trace — a durability stall is attributed to the
// request that paid for it. Untraced contexts cost nothing extra.
func (m *Manager) LogCtx(ctx context.Context, ops []aindex.JournalOp, epoch uint64) {
	var sp *telemetry.Span
	sctx := ctx
	if telemetry.SpanFromContext(ctx) != nil {
		sctx, sp = telemetry.StartSpan(ctx, "wal.append")
		sp.SetAttr("ops", strconv.Itoa(len(ops)))
		defer sp.End()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.err != nil || m.f == nil {
		return
	}
	m.scratch = appendBatch(m.scratch[:0], epoch, ops)
	n, err := m.f.Write(m.scratch)
	if err != nil {
		m.err = fmt.Errorf("wal: append: %w", err)
		walErrors.Inc()
		sp.Mark(telemetry.FlagError)
		return
	}
	m.segSize += int64(n)
	m.lastEpoch = epoch
	m.dirty = true
	walAppends.Inc()
	walAppendBytes.Add(uint64(n))
	if m.opts.Fsync == FsyncAlways {
		if sp != nil {
			_, fsp := telemetry.StartSpan(sctx, "wal.fsync")
			m.syncLocked()
			if m.err != nil {
				fsp.Mark(telemetry.FlagError)
			}
			fsp.End()
		} else {
			m.syncLocked()
		}
	}
	if m.segSize >= m.opts.SegmentBytes {
		m.rotateLocked()
	}
}

// syncLocked fsyncs the active segment and advances the durable epoch.
// Caller holds m.mu.
func (m *Manager) syncLocked() {
	if !m.dirty || m.f == nil {
		return
	}
	start := time.Now()
	if err := m.f.Sync(); err != nil {
		m.err = fmt.Errorf("wal: fsync: %w", err)
		walErrors.Inc()
		return
	}
	walFsync.Observe(time.Since(start))
	m.dirty = false
	m.durableEpoch.Store(m.lastEpoch)
}

// rotateLocked seals the active segment (syncing it regardless of policy —
// sealed segments are always durable) and opens the next one. Caller holds
// m.mu.
func (m *Manager) rotateLocked() {
	m.syncLocked()
	if m.err != nil {
		return
	}
	if err := m.f.Close(); err != nil {
		m.err = fmt.Errorf("wal: seal segment: %w", err)
		walErrors.Inc()
		return
	}
	next := m.segments[len(m.segments)-1].seq + 1
	if err := m.openSegmentLocked(next, m.lastEpoch); err != nil {
		m.f = nil
		m.err = err
		walErrors.Inc()
	}
}

func (m *Manager) startFsyncLoop() {
	if m.opts.Fsync != FsyncInterval {
		close(m.fsyncDone)
		return
	}
	go func() {
		defer close(m.fsyncDone)
		t := time.NewTicker(m.opts.FsyncEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stopFsync:
				return
			case <-t.C:
				m.mu.Lock()
				if !m.closed {
					m.syncLocked()
				}
				m.mu.Unlock()
			}
		}
	}()
}

// Checkpoint writes a snapshot of the index's current canonical edge list,
// stamped with the epoch fence read atomically with it, then prunes
// checkpoints and sealed segments the new checkpoint has subsumed. Safe to
// call concurrently with mutations; concurrent Checkpoint calls serialize.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	ix := m.Index()
	if ix == nil {
		return fmt.Errorf("wal: checkpoint before seed")
	}
	// Read edges+epoch BEFORE taking m.mu: EdgesWithEpoch takes the index
	// read lock, and Log runs under the index write lock while wanting m.mu —
	// taking them in the opposite order here would deadlock.
	edges, epoch := ix.EdgesWithEpoch()
	// Checkpoints run in the background, so the span is its own (usually
	// fast, therefore sampled-or-dropped) root trace; a stalling checkpoint
	// crosses the slow threshold and surfaces on its own.
	_, sp := telemetry.StartSpan(context.Background(), "wal.checkpoint")
	sp.SetAttr("epoch", strconv.FormatUint(epoch, 10))
	defer sp.End()
	start := time.Now()
	tmp := filepath.Join(m.dir, "checkpoint.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	n, err := aindex.WriteSnapshot(f, edges, epoch)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(m.dir, checkpointName(epoch)))
	}
	if err == nil {
		err = syncDir(m.dir)
	}
	if err != nil {
		os.Remove(tmp)
		walErrors.Inc()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	walCheckpoints.Inc()
	walCheckpointDur.Observe(time.Since(start))
	m.ckptEpoch.Store(epoch)
	m.ckptLastBytes.Store(n)
	m.prune(epoch)
	return nil
}

// prune deletes checkpoints beyond the retention count and sealed segments
// wholly subsumed by the checkpoint at ckptEpoch (keeping RetainSegments of
// them as a margin).
func (m *Manager) prune(ckptEpoch uint64) {
	ckpts, _, err := m.scanDir()
	if err == nil && len(ckpts) > m.opts.RetainCheckpoints {
		for _, e := range ckpts[:len(ckpts)-m.opts.RetainCheckpoints] {
			os.Remove(filepath.Join(m.dir, checkpointName(e)))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Segment i (sealed) is dead once the NEXT segment's fence is <= the
	// checkpoint epoch: then every batch of segment i has epoch <= fence <=
	// ckptEpoch and replay would skip all of them.
	dead := 0
	for i := 0; i+1 < len(m.segments); i++ {
		if m.segments[i+1].baseEpoch <= ckptEpoch {
			dead = i + 1
		} else {
			break
		}
	}
	dead -= m.opts.RetainSegments
	if dead <= 0 {
		return
	}
	for _, s := range m.segments[:dead] {
		os.Remove(filepath.Join(m.dir, segmentName(s.seq)))
	}
	m.segments = append(m.segments[:0], m.segments[dead:]...)
}

// Close shuts the durability pipeline down cleanly: detach the journal (so
// no mutation races the teardown), stop the fsync loop, sync the final
// segment, write a final checkpoint and close the file. The caller is
// responsible for draining mutators first (the server does so via HTTP
// Shutdown before calling Close).
func (m *Manager) Close() error {
	m.mu.Lock()
	ix := m.ix
	m.mu.Unlock()
	if ix != nil {
		ix.SetJournal(nil)
	}
	m.stopOnce.Do(func() { close(m.stopFsync) })
	<-m.fsyncDone
	var ckptErr error
	if ix != nil {
		ckptErr = m.Checkpoint()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ckptErr
	}
	m.closed = true
	m.syncLocked()
	if m.f != nil {
		if err := m.f.Close(); err != nil && m.err == nil {
			m.err = err
		}
		m.f = nil
	}
	if ckptErr != nil {
		return ckptErr
	}
	return m.err
}

// Abort simulates a crash for tests and the recovery benchmark: it detaches
// the journal and closes the segment file WITHOUT a final sync or checkpoint,
// leaving the directory exactly as a SIGKILL would (modulo what the OS had
// already flushed — on the same machine the page cache still holds the
// writes, which models kill-the-process rather than pull-the-plug).
func (m *Manager) Abort() {
	m.mu.Lock()
	ix := m.ix
	m.mu.Unlock()
	if ix != nil {
		ix.SetJournal(nil)
	}
	m.stopOnce.Do(func() { close(m.stopFsync) })
	<-m.fsyncDone
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	if m.f != nil {
		m.f.Close()
		m.f = nil
	}
}

// Stats is a point-in-time snapshot of the durability pipeline, exported by
// RegisterMetrics. Appends, appended bytes and checkpoints are counted by the
// package counters quepa_wal_appends_total, quepa_wal_append_bytes_total and
// quepa_checkpoints_total.
type Stats struct {
	Fsync           string
	Segments        int
	SegmentBytes    int64 // size of the active segment
	LastEpoch       uint64
	DurableEpoch    uint64
	CheckpointEpoch uint64
	CheckpointBytes int64 // size of the newest checkpoint this manager wrote
}

// Stats returns a snapshot of the manager's state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		Fsync:        m.opts.Fsync,
		Segments:     len(m.segments),
		SegmentBytes: m.segSize,
		LastEpoch:    m.lastEpoch,
	}
	m.mu.Unlock()
	s.DurableEpoch = m.durableEpoch.Load()
	s.CheckpointEpoch = m.ckptEpoch.Load()
	s.CheckpointBytes = m.ckptLastBytes.Load()
	return s
}

// RegisterMetrics exports Stats on a telemetry registry as function-backed
// gauges read at scrape time. Re-registering (a reopened data dir) points
// the series at the new manager.
func (m *Manager) RegisterMetrics(r *telemetry.Registry) {
	r.GaugeFunc("quepa_wal_segments", "WAL segment files, the active one included",
		func() float64 { return float64(m.Stats().Segments) })
	r.GaugeFunc("quepa_wal_active_segment_bytes", "bytes in the active WAL segment",
		func() float64 { return float64(m.Stats().SegmentBytes) })
	r.GaugeFunc("quepa_wal_last_epoch", "A' epoch of the newest batch appended to the WAL",
		func() float64 { return float64(m.Stats().LastEpoch) })
	r.GaugeFunc("quepa_wal_durable_epoch", "newest A' epoch known to be on stable storage",
		func() float64 { return float64(m.Stats().DurableEpoch) })
	r.GaugeFunc("quepa_wal_checkpoint_epoch", "epoch fence of the newest checkpoint, written or recovered",
		func() float64 { return float64(m.Stats().CheckpointEpoch) })
	r.GaugeFunc("quepa_wal_last_checkpoint_bytes", "size of the newest checkpoint this process wrote",
		func() float64 { return float64(m.Stats().CheckpointBytes) })
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
