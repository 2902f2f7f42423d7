// Package systemstest builds the test side of a driver the way a run builds
// it: an Env at the scale the model is calibrated at, on an auto-advancing
// virtual clock with the test goroutine registered on it, and a
// collector that waits for events on that clock. A test on it is CPU-bound
// and repeats exactly, whatever the calibrated service times.
package systemstest

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
)

// On returns a test Env on clk, for a caller that owns the clock (the
// runner hands each repetition its own): the paper's four nodes at the
// scale the model is calibrated at, zero link latency, no WAL, no tracer,
// seed 42.
func On(clk *clock.AutoVirtual) systems.Env {
	return systems.Env{Nodes: 4, Scale: 0.01, Latency: network.ZeroLatency{}, Clock: clk, Seed: 42}
}

// Env returns a test Env on a fresh auto-advancing virtual clock, with the
// calling test registered on it until the test ends. Call it
// after t.Parallel, and stop what is built on it before the test returns: a
// Start or t.Cleanup registered after Env runs first.
func Env(t testing.TB) systems.Env {
	t.Helper()
	return On(clocktest.New(t))
}

// Start starts d and stops it when the test ends.
func Start(t testing.TB, d systems.Driver) {
	t.Helper()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
}

// pollInterval is how often Wait looks at the events on the env clock.
const pollInterval = 2 * time.Millisecond

// Settle is how long a test waits on the clock for stragglers to land, or
// to see that something which must not happen (a phantom or duplicate
// confirmation, a commit on a stalled network) does not. A window shorter
// than the calibrated system takes to deliver cannot fail, so Settle
// outlasts the slowest: four Sawtooth blocks at its KeyValue-Set cell's
// 1.025 s (25 ms + 100 × 10 ms, one batch per block), or a queue of Corda
// flows (OS signs serially for 3 × 180 ms, Enterprise in one 500 ms hop).
// On the virtual clock a long window costs only the timer fires inside it.
const Settle = 5 * time.Second

// Collector gathers the events a driver delivers to one client.
type Collector struct {
	clk    *clock.AutoVirtual
	events []systems.Event
}

// Collect subscribes a new Collector to d's events for client; it waits on
// env's clock.
func Collect(env systems.Env, d systems.Driver, client string) *Collector {
	c := &Collector{clk: env.Clock}
	d.Subscribe(client, c.add)
	return c
}

func (c *Collector) add(e systems.Event) { c.events = append(c.events, e) }

// Len reports how many events have arrived.
func (c *Collector) Len() int { return len(c.events) }

// Events returns a copy of the events so far, in arrival order.
func (c *Collector) Events() []systems.Event {
	return append([]systems.Event(nil), c.events...)
}

// Wait sleeps on the clock until at least want events have arrived and
// returns them, failing t once timeout has passed on the clock.
func (c *Collector) Wait(t testing.TB, want int, timeout time.Duration) []systems.Event {
	t.Helper()
	deadline := c.clk.Now().Add(timeout)
	for c.Len() < want {
		if !c.clk.Now().Before(deadline) {
			t.Fatalf("received %d events in %v, want %d", c.Len(), timeout, want)
		}
		c.clk.Sleep(pollInterval)
	}
	return c.Events()
}

// Restart restarts node of d and sleeps out its recovery on clk, step by
// step, as the runner restarting a node does.
func Restart(t testing.TB, clk *clock.AutoVirtual, d systems.Driver, node int) {
	t.Helper()
	wait, err := d.RestartNode(node)
	if err != nil {
		t.Fatal(err)
	}
	for ; wait > 0; wait = d.ResumeNode(node) {
		clk.Sleep(wait)
	}
}
