package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"quepa/internal/aindex"
)

// RecoveryStats describes what crash recovery did at Open.
type RecoveryStats struct {
	// Recovered is true when Open rebuilt an index from durable state.
	Recovered bool `json:"recovered"`
	// CheckpointEpoch is the epoch fence of the checkpoint that was loaded
	// (0 when recovery started from an empty index).
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	// ReplayedBatches and ReplayedOps count the log tail applied on top of
	// the checkpoint; SkippedBatches counts batches at or below the fence.
	ReplayedBatches uint64 `json:"replayed_batches"`
	ReplayedOps     uint64 `json:"replayed_ops"`
	SkippedBatches  uint64 `json:"skipped_batches"`
	// TruncatedBytes is how much torn tail was cut off the last segment.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// DroppedSegments counts segments discarded because they sat beyond a
	// torn record (only possible after manual tampering; a crash tears at
	// most the newest segment).
	DroppedSegments int `json:"dropped_segments"`
	// CorruptCheckpoints counts checkpoint files that failed validation and
	// were skipped in favor of an older one.
	CorruptCheckpoints int `json:"corrupt_checkpoints"`
	// LastEpoch is the epoch of the newest committed batch after replay.
	LastEpoch uint64 `json:"last_epoch"`
	// Duration is the wall time recovery took.
	Duration time.Duration `json:"duration_nanos"`
}

// recover rebuilds the index from the newest valid checkpoint plus the log
// tail, truncates any torn suffix, and leaves the manager ready to append.
// Called from Open with the checkpoint epochs and segment sequence numbers
// found on disk.
func (m *Manager) recover(ckpts, segs []uint64) error {
	start := time.Now()
	m.recovery.Recovered = true

	// Newest checkpoint that passes CRC + structural validation wins; corrupt
	// ones are skipped (never fatal — the log can replay from further back).
	ix := aindex.New()
	var fence uint64
	for i := len(ckpts) - 1; i >= 0; i-- {
		loaded, epoch, err := readCheckpoint(filepath.Join(m.dir, checkpointName(ckpts[i])))
		if err != nil {
			m.recovery.CorruptCheckpoints++
			continue
		}
		ix, fence = loaded, epoch
		break
	}
	m.recovery.CheckpointEpoch = fence
	m.ckptEpoch.Store(fence)
	m.lastEpoch = fence

	// Replay segments in order. The first torn record ends the log: the torn
	// tail of that segment is truncated away and later segments (which cannot
	// legitimately exist past a tear) are dropped.
	torn := false
	for _, seq := range segs {
		if torn {
			os.Remove(filepath.Join(m.dir, segmentName(seq)))
			m.recovery.DroppedSegments++
			continue
		}
		baseEpoch, ok, err := m.replaySegment(ix, seq, fence)
		if err != nil {
			return err
		}
		m.segments = append(m.segments, segment{seq: seq, baseEpoch: baseEpoch})
		torn = !ok
	}

	// Reopen the last surviving segment for append, or start a new one if
	// the directory held only checkpoints.
	if n := len(m.segments); n > 0 {
		path := filepath.Join(m.dir, segmentName(m.segments[n-1].seq))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: stat segment: %w", err)
		}
		m.f = f
		m.segSize = st.Size()
	} else if err := m.openSegmentLocked(1, m.lastEpoch); err != nil {
		return err
	}

	// Future mutations must fence strictly above everything already logged;
	// replay bumps the index epoch per applied op, which may run ahead of the
	// batch fences (harmless — monotonicity is all the skip logic needs), but
	// when the tail was mostly skipped it can also lag behind.
	ix.AdvanceEpoch(m.lastEpoch)
	ix.SetJournal(m)
	m.ix = ix
	// Everything just recovered was read back from stable storage, so the
	// durability watermark starts at the recovered epoch, not at zero.
	m.durableEpoch.Store(m.lastEpoch)
	m.recovery.LastEpoch = m.lastEpoch
	m.recovery.Duration = time.Since(start)
	walReplayed.Add(m.recovery.ReplayedBatches)
	return nil
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(path string) (*aindex.Index, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return aindex.ReadSnapshot(f)
}

// replaySegment applies the committed batches of one segment with epoch >
// fence to ix. It returns the segment's header fence and ok=false when the
// segment ends in a torn record (which it truncates away). Only I/O failures
// are errors; corruption never is.
func (m *Manager) replaySegment(ix *aindex.Index, seq, fence uint64) (baseEpoch uint64, ok bool, err error) {
	path := filepath.Join(m.dir, segmentName(seq))
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()

	var off int64 // offset of the record being read
	var hdr [frameOverhead]byte
	var payload []byte
	readRecord := func() ([]byte, bool) {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return nil, false
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordBytes {
			return nil, false
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil, false
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return nil, false
		}
		return payload, true
	}

	// Header record first. A segment whose very header is torn contributes
	// nothing; it is truncated to zero and reused.
	p, good := readRecord()
	if good {
		baseEpoch, err = parseHeader(p)
		good = err == nil
	}
	if !good {
		return m.truncateSegment(f, path, 0, seq, fence)
	}
	off = frameOverhead + int64(len(p))

	for {
		p, good := readRecord()
		if !good {
			break
		}
		recLen := frameOverhead + int64(len(p))
		b, err := parseBatch(p)
		if err != nil {
			// CRC passed but the payload is structurally invalid: treat as
			// torn at this record, same as a checksum failure.
			break
		}
		if b.epoch <= fence {
			m.recovery.SkippedBatches++
		} else {
			if err := applyBatch(ix, b); err != nil {
				return baseEpoch, false, err
			}
			m.recovery.ReplayedBatches++
			m.recovery.ReplayedOps += uint64(len(b.ops))
			m.lastEpoch = b.epoch
		}
		off += recLen
	}

	// Did we stop at EOF exactly, or at a torn record?
	st, err := f.Stat()
	if err != nil {
		return baseEpoch, false, fmt.Errorf("wal: stat segment: %w", err)
	}
	if st.Size() == off {
		return baseEpoch, true, nil
	}
	_, ok, err = m.truncateSegment(f, path, off, seq, fence)
	return baseEpoch, ok, err
}

// truncateSegment cuts a torn tail off a segment at the given offset. A
// segment truncated to zero is rewritten with a fresh header so it stays a
// valid (empty) segment.
func (m *Manager) truncateSegment(f *os.File, path string, off int64, seq, fence uint64) (uint64, bool, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("wal: stat segment: %w", err)
	}
	m.recovery.TruncatedBytes += st.Size() - off
	if err := os.Truncate(path, off); err != nil {
		return 0, false, fmt.Errorf("wal: truncate torn segment: %w", err)
	}
	if off > 0 {
		return 0, false, nil // baseEpoch unused on this path; caller already has it
	}
	// Header itself was torn: rewrite it at the current fence.
	w, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return 0, false, fmt.Errorf("wal: rewrite segment header: %w", err)
	}
	hdr := appendHeader(nil, m.lastEpoch)
	_, werr := w.Write(hdr)
	if serr := w.Sync(); werr == nil {
		werr = serr
	}
	if cerr := w.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return 0, false, fmt.Errorf("wal: rewrite segment header: %w", werr)
	}
	return m.lastEpoch, false, nil
}

// applyBatch replays one committed batch into the index. Replay happens
// before the journal is installed, so nothing is re-logged.
func applyBatch(ix *aindex.Index, b batch) error {
	for _, op := range b.ops {
		switch op.Kind {
		case aindex.OpInsert:
			if err := ix.Insert(op.Rel); err != nil {
				return fmt.Errorf("wal: replay insert: %w", err)
			}
		case aindex.OpInsertRaw:
			if err := ix.InsertRaw(op.Rel); err != nil {
				return fmt.Errorf("wal: replay raw insert: %w", err)
			}
		case aindex.OpRemove:
			ix.RemoveObject(op.Key)
		}
	}
	return nil
}
