// Package clocktest puts a test on the virtual clock the way a run puts an
// actor on it: the test goroutine registers, so its sleeps advance the clock
// and whatever it started runs while it waits, in one deterministic order.
package clocktest

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

// New returns a fresh auto-advancing virtual clock with the calling test
// registered on it as an actor until the test ends. Stop what is built on
// it before the test returns: a defer, or a t.Cleanup registered after New,
// runs first.
func New(t testing.TB) *clock.AutoVirtual {
	t.Helper()
	clk := clock.NewAutoVirtual()
	h := clock.Register(clk, "test")
	t.Cleanup(h.Close)
	return clk
}

// pollInterval is how often Until looks at its condition.
const pollInterval = time.Millisecond

// Until sleeps on clk until cond holds, failing t with what once timeout has
// passed on the clock.
func Until(t testing.TB, clk *clock.AutoVirtual, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := clk.Now().Add(timeout)
	for !cond() {
		if !clk.Now().Before(deadline) {
			t.Fatalf("%s: not within %v", what, timeout)
		}
		clk.Sleep(pollInterval)
	}
}

// Steps runs one clock event per name, each working in steps: event i calls
// step(i), which does one step of its work and returns how long to wait
// before the next, or that the work is done. A zero wait goes on at once; a
// positive one arms the event's deadline, keyed under its name. The events
// get their first turn in the order of names once the caller parks, and
// Steps sleeps on clk until every one is done, failing t with what once
// timeout has passed on the clock.
func Steps(t testing.TB, clk *clock.AutoVirtual, timeout time.Duration, what string, names []string, step func(i int) (wait time.Duration, done bool)) {
	t.Helper()
	left := len(names)
	for i, name := range names {
		var ev *clock.Event
		ev = clock.NewEvent(clk, name, func() {
			for {
				wait, done := step(i)
				if done {
					left--
					return
				}
				if wait > 0 {
					ev.After(wait)
					return
				}
			}
		})
		ev.Trigger()
	}
	Until(t, clk, timeout, what, func() bool { return left == 0 })
}
