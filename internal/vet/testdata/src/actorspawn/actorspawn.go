// Fixture for the actorspawn analyzer: in clock-actor packages every
// goroutine is an actor started by clock.Go, which announces and registers
// it so the AutoVirtual quiescence detector can see it. Any go statement —
// bare, or hand-announced with clock.Fork and clock.RegisterForked — is a
// finding.
package fixture

import (
	"github.com/coconut-bench/coconut/internal/clock"
)

func worker(c *clock.AutoVirtual) { c.Sleep(1) }

func bare(c *clock.AutoVirtual) {
	go worker(c) // want `go statement in a clock-actor package`
}

func bareClosure(c *clock.AutoVirtual) {
	go func() { // want `go statement in a clock-actor package`
		worker(c)
	}()
}

// A hand-written Fork no longer sanctions the spawns after it.
func forked(c *clock.AutoVirtual) {
	clock.Fork(c, 1)
	go worker(c) // want `go statement in a clock-actor package`
}

func forkedLoop(c *clock.AutoVirtual, n int) {
	clock.Fork(c, n)
	for i := 0; i < n; i++ {
		go worker(c) // want `go statement in a clock-actor package`
	}
}

// Nor does a closure that registers itself.
func selfRegistering(c *clock.AutoVirtual) {
	go func() { // want `go statement in a clock-actor package`
		h := clock.RegisterForked(c, "w")
		defer h.Close()
		worker(c)
	}()
}

// The one way to start actors.
func started(c *clock.AutoVirtual) {
	clock.Go(c, []string{"w0", "w1"}, func(int) { worker(c) })()
}
