//go:build !race

package optimizer

const raceEnabled = false
