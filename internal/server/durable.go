package server

import (
	"log"
	"time"

	"quepa/internal/wal"
)

// This file wires the durability subsystem (internal/wal) into the server:
// recover-or-seed at startup and a periodic checkpoint loop. The final WAL
// flush and shutdown checkpoint happen in Close, which the command runs only
// after HTTP has drained.

// openDurable attaches the workload to a WAL data directory. On a directory
// holding a previous incarnation's state the recovered index replaces the
// workload's (the generated or -index one is discarded — the durable state is
// the authority); on a fresh directory the current index seeds it. Either way
// the manager journals every subsequent index mutation. No directory, no
// manager. A bad fsync policy is an error either way.
func (s *Server) openDurable(dir, fsync string) error {
	if fsync != "" {
		if _, err := wal.ParseFsyncPolicy(fsync); err != nil {
			return err
		}
	}
	if dir == "" {
		return nil
	}
	m, err := wal.Open(dir, wal.Options{Fsync: fsync})
	if err != nil {
		return err
	}
	s.wal = m
	s.closers = append(s.closers, m.Close)
	if rec := m.Recovery(); rec.Recovered {
		s.built.Index = m.Index()
		log.Printf("quepa-server: recovered index from %s: checkpoint epoch %d, %d batches (%d ops) replayed in %v",
			dir, rec.CheckpointEpoch, rec.ReplayedBatches, rec.ReplayedOps, rec.Duration.Round(time.Millisecond))
		return nil
	}
	if err := m.Seed(s.built.Index); err != nil {
		return err
	}
	log.Printf("quepa-server: seeded fresh data dir %s (fsync=%s)", dir, m.Stats().Fsync)
	return nil
}

// startCheckpointLoop checkpoints the managed index every interval, bounding
// the log tail a crash would have to replay. The returned stop function
// blocks until the loop has exited; it does not write a final checkpoint —
// that is the WAL's Close, after HTTP has drained.
func startCheckpointLoop(m *wal.Manager, interval time.Duration) (stop func() error) {
	if m == nil || interval <= 0 {
		return func() error { return nil }
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := m.Checkpoint(); err != nil {
					log.Printf("quepa-server: periodic checkpoint: %v", err)
				}
			case <-quit:
				return
			}
		}
	}()
	return func() error {
		close(quit)
		<-done
		return nil
	}
}
