//go:build !race

package augment

const raceEnabled = false
