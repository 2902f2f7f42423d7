//go:build race

package crypto

// raceDetector reports whether the test binary runs under the race
// detector, whose sync.Pool drops pooled items at random, so the pooled
// hasher's allocation pins cannot hold there.
const raceDetector = true
