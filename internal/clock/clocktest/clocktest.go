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
