//go:build race

package augment

// raceEnabled reports that this test binary was built with -race, which
// instruments sync.Pool and skews allocation counts.
const raceEnabled = true
