package augment

import (
	"strconv"

	"quepa/internal/telemetry"
)

// Telemetry of the augmentation hot path. Handles are resolved once at init
// (one histogram and one error counter per strategy, indexed by the strategy
// constant) so recording a finished augmentation is a single histogram
// observation with no registry lookup.

const (
	augmentHistName = "quepa_augment_duration_seconds"
	augmentErrsName = "quepa_augment_errors_total"
)

// numStrategies matches len(Strategies); the init below asserts it.
const numStrategies = 6

var (
	strategyHists [numStrategies]*telemetry.Histogram
	strategyErrs  [numStrategies]*telemetry.Counter

	// degradedTotal counts stores dropped from answers (partial results).
	degradedTotal = telemetry.NewCounter("quepa_augment_degraded_total",
		"stores whose contribution was dropped from an augmented answer")
)

func init() {
	if len(Strategies) != numStrategies {
		panic("augment: numStrategies out of sync with Strategies")
	}
	for _, s := range Strategies {
		label := telemetry.L("strategy", s.String())
		strategyHists[s] = telemetry.NewHistogram(augmentHistName,
			"end-to-end latency of AugmentObjects per execution strategy", nil, label)
		strategyErrs[s] = telemetry.NewCounter(augmentErrsName,
			"augmentations that returned an error, per execution strategy", label)
	}
}

func strategyHist(s Strategy) *telemetry.Histogram {
	if int(s) < 0 || int(s) >= len(strategyHists) {
		return nil
	}
	return strategyHists[s]
}

func strategyErr(s Strategy) *telemetry.Counter {
	if int(s) < 0 || int(s) >= len(strategyErrs) {
		return nil
	}
	return strategyErrs[s]
}

func itoa(n int) string { return strconv.Itoa(n) }
