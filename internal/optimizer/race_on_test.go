//go:build race

package optimizer

// raceEnabled reports that this test binary was built with -race, which
// skews allocation counts.
const raceEnabled = true
