package optimizer

import (
	"bufio"
	"encoding/json"
	"io"
)

// This file writes run logs out as JSON lines, the form of the training data
// the paper collects over time (the logs of ~2 million runs; Phase 1 of
// Section V). Nothing reads them back in: the server's decision tests read
// the logged configurations through SaveLogs.

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
