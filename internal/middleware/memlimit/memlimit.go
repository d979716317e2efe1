// Package memlimit models the bounded memory of the middleware baselines.
//
// The paper's Fig. 13 marks with a red 'X' the points where Metamodel,
// Talend or ArangoDB run out of memory: those systems materialize
// intermediate results (unified rows, ETL stages, an in-memory multi-model
// image of the whole polystore), so their footprint grows with data size and
// store count until the JVM/process dies. Re-creating a real OOM kill is
// neither portable nor desirable in a test suite, so the baselines account
// every materialized row against an explicit budget and fail with
// ErrOutOfMemory when they exceed it — same crossover, deterministic and
// observable.
package memlimit

import (
	"errors"
	"fmt"
	"sync"

	"quepa/internal/core"
)

// ErrOutOfMemory is returned (wrapped) when an allocation exceeds the budget.
var ErrOutOfMemory = errors.New("memlimit: out of memory")

// Accountant tracks memory use against a budget. It is safe for concurrent
// use. A zero budget means unlimited.
type Accountant struct {
	mu     sync.Mutex
	budget int64
	used   int64
	peak   int64
}

// New creates an accountant with the given budget in bytes (0 = unlimited).
func New(budget int64) *Accountant {
	if budget < 0 {
		budget = 0
	}
	return &Accountant{budget: budget}
}

// Alloc charges n bytes, failing when the budget would be exceeded. A failed
// allocation charges nothing.
func (a *Accountant) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("memlimit: negative allocation %d", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget > 0 && a.used+n > a.budget {
		return fmt.Errorf("memlimit: allocating %d bytes with %d/%d used: %w", n, a.used, a.budget, ErrOutOfMemory)
	}
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
	return nil
}

// Free releases n bytes (clamped at zero).
func (a *Accountant) Free(n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.used -= n
	if a.used < 0 {
		a.used = 0
	}
}

// Reset releases everything (e.g. the baseline process is restarted).
// The peak statistic is kept.
func (a *Accountant) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.used = 0
}

// Used returns the current footprint in bytes.
func (a *Accountant) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Peak returns the highest footprint observed.
func (a *Accountant) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Budget returns the configured budget (0 = unlimited).
func (a *Accountant) Budget() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget
}

// ObjectCost approximates the bytes a materialized data object occupies in a
// middleware's unified representation: a fixed row overhead plus field data.
func ObjectCost(o core.Object) int64 {
	cost := int64(96) // row header, key, bookkeeping
	cost += int64(len(o.GK.Database) + len(o.GK.Collection) + len(o.GK.Key))
	o.Fields.All(func(k, v string) bool {
		cost += int64(len(k) + len(v) + 32)
		return true
	})
	return cost
}

// EdgeCost approximates the bytes one materialized p-relation occupies.
func EdgeCost(r core.PRelation) int64 {
	return int64(64 +
		len(r.From.Database) + len(r.From.Collection) + len(r.From.Key) +
		len(r.To.Database) + len(r.To.Collection) + len(r.To.Key))
}
