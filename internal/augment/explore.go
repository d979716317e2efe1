package augment

import (
	"context"
	"fmt"
	"slices"

	"quepa/internal/aindex"
	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// Exploration is an augmented-exploration session (Definition 4): starting
// from the result of a local query, the user repeatedly selects one object
// and expands it with the level-0 augmentation construct, following the
// p-relation links through the polystore one click at a time.
//
// The session records the path of selected objects; when it ends (Finish),
// the traversed full path is handed to the A' index's promotion tracker so
// that popular explorations become matching shortcuts (Section III-D(a)).
//
// An Exploration is not safe for concurrent use: it models one user's
// interactive session. A caller that shares one across goroutines holds its
// own lock around each call. Run independent sessions on separate
// Explorations — the underlying Augmenter is safe to share.
type Exploration struct {
	aug      *Augmenter
	tracker  *aindex.PathTracker // may be nil: no promotion
	start    []core.GlobalKey    // the start result: the first Step's choices
	path     []core.GlobalKey
	current  []AugmentedObject
	degraded []Degradation // stores dropped by the last Step
	done     bool
}

// Explore starts an exploration session from a local query: the query is
// validated and executed, and its results become the candidate starting
// objects. The tracker may be nil to disable path promotion.
func (a *Augmenter) Explore(ctx context.Context, database, query string, tracker *aindex.PathTracker) (*Exploration, []core.Object, error) {
	answer, err := a.Search(ctx, database, query, 0)
	if err != nil {
		return nil, nil, err
	}
	// Only the local result is exposed at session start: augmentation
	// happens one selected object at a time.
	start := make([]core.GlobalKey, len(answer.Original))
	for i, o := range answer.Original {
		start[i] = o.GK
	}
	e := &Exploration{aug: a, tracker: tracker, start: start}
	return e, answer.Original, nil
}

// Step selects a data object and expands it with the augmentation construct
// of level 0, returning the related objects ordered by probability — the
// "links" the user can click next. The first Step must select an object of
// the starting query's result; later Steps must select objects returned by
// the previous Step.
func (e *Exploration) Step(ctx context.Context, gk core.GlobalKey) ([]AugmentedObject, error) {
	if e.done {
		return nil, fmt.Errorf("augment: exploration session already finished")
	}
	if len(e.path) == 0 {
		if !slices.Contains(e.start, gk) {
			return nil, fmt.Errorf("augment: %v is not an object of the start result", gk)
		}
	} else if !slices.ContainsFunc(e.current, func(c AugmentedObject) bool { return c.Object.GK == gk }) {
		return nil, fmt.Errorf("augment: %v was not among the objects of the previous step", gk)
	}
	ctx, span := telemetry.StartSpan(ctx, "augment.step")
	defer span.End()
	span.SetAttr("db", gk.Database)
	span.SetAttr("key", gk.String())
	origin, err := e.aug.fetch(ctx, gk)
	if err != nil {
		return nil, err
	}
	expansion, degraded, err := e.aug.AugmentObjects(ctx, []core.Object{origin}, 0)
	if err != nil {
		return nil, err
	}
	e.path = append(e.path, gk)
	e.current = expansion
	e.degraded = degraded
	return expansion, nil
}

// Degraded returns the stores whose contribution the last Step dropped — a
// partial expansion the UI should flag rather than fail.
func (e *Exploration) Degraded() []Degradation { return e.degraded }

// Path returns the objects selected so far, in order.
func (e *Exploration) Path() []core.GlobalKey {
	out := make([]core.GlobalKey, len(e.path))
	copy(out, e.path)
	return out
}

// Finish ends the session and records the traversed full path in the
// promotion tracker. It returns whether the path was promoted into a new
// matching p-relation.
func (e *Exploration) Finish() bool {
	if e.done {
		return false
	}
	e.done = true
	if e.tracker == nil {
		return false
	}
	return e.tracker.Record(e.path)
}
