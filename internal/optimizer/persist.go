package optimizer

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"quepa/internal/augment"
)

// This file persists run logs as JSON lines so a long-lived deployment can
// accumulate training data across restarts (the paper trains on the logs of
// ~2 million runs collected over time; Phase 1 of Section V).

// persistedLog is the on-disk form of one RunLog.
type persistedLog struct {
	ResultSize    int    `json:"resultSize"`
	AugmentedSize int    `json:"augmentedSize"`
	Level         int    `json:"level"`
	NumStores     int    `json:"numStores"`
	Distributed   bool   `json:"distributed,omitempty"`
	Strategy      string `json:"strategy"`
	BatchSize     int    `json:"batchSize,omitempty"`
	ThreadsSize   int    `json:"threadsSize,omitempty"`
	CacheSize     int    `json:"cacheSize,omitempty"`
	DurationNS    int64  `json:"durationNs"`
}

// SaveLogs streams the recorded run logs as JSON lines, oldest run first.
func (a *Adaptive) SaveLogs(w io.Writer) error {
	a.mu.Lock()
	logs := a.chronological()
	a.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range logs {
		rec := persistedLog{
			ResultSize:    r.Features.ResultSize,
			AugmentedSize: r.Features.AugmentedSize,
			Level:         r.Features.Level,
			NumStores:     r.Features.NumStores,
			Distributed:   r.Features.Distributed,
			Strategy:      r.Config.Strategy.String(),
			BatchSize:     r.Config.BatchSize,
			ThreadsSize:   r.Config.ThreadsSize,
			CacheSize:     r.Config.CacheSize,
			DurationNS:    r.Duration.Nanoseconds(),
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadLogs appends run logs from the JSON-lines form produced by SaveLogs,
// as if each had been logged in file order: with MaxLogs set, the newest
// MaxLogs runs are kept.
// Automatic retraining is suppressed during the load; call Train afterwards.
func (a *Adaptive) LoadLogs(r io.Reader) (int, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line, loaded := 0, 0
	var batch []RunLog
	for scanner.Scan() {
		line++
		raw := scanner.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec persistedLog
		if err := json.Unmarshal(raw, &rec); err != nil {
			return loaded, fmt.Errorf("optimizer: line %d: %w", line, err)
		}
		strategy, err := augment.ParseStrategy(rec.Strategy)
		if err != nil {
			return loaded, fmt.Errorf("optimizer: line %d: %w", line, err)
		}
		if rec.DurationNS < 0 {
			return loaded, fmt.Errorf("optimizer: line %d: negative duration", line)
		}
		batch = append(batch, RunLog{
			Features: QueryFeatures{
				ResultSize:    rec.ResultSize,
				AugmentedSize: rec.AugmentedSize,
				Level:         rec.Level,
				NumStores:     rec.NumStores,
				Distributed:   rec.Distributed,
			},
			Config: augment.Config{
				Strategy:    strategy,
				BatchSize:   rec.BatchSize,
				ThreadsSize: rec.ThreadsSize,
				CacheSize:   rec.CacheSize,
			},
			Duration: time.Duration(rec.DurationNS),
		})
		loaded++
	}
	if err := scanner.Err(); err != nil {
		return loaded, err
	}
	a.mu.Lock()
	for _, r := range batch {
		a.record(r)
	}
	a.mu.Unlock()
	return loaded, nil
}
