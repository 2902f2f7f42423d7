//go:build !race

package systems

// raceDetector reports whether the test binary runs under the race
// detector, whose sync.Pool drops pooled items at random, so an allocation
// pin on a path that seals a block (through the pooled hasher) cannot hold
// there.
const raceDetector = false
