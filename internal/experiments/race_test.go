//go:build race

package experiments

// raceDetector reports whether the test binary runs under the race
// detector, whose scheduler reaches the model (see TestPaperFidelity).
const raceDetector = true
