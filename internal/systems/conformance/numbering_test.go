package conformance_test

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// eventCounter wraps a driver and counts, by transaction number, the events
// it delivers to the runner's clients.
type eventCounter struct {
	systems.Driver
	fired map[uint64]int
}

func (d *eventCounter) Subscribe(client string, fn systems.EventFunc) {
	d.Driver.Subscribe(client, func(ev systems.Event) {
		d.fired[ev.Num]++
		fn(ev)
	})
}

// TestHubNumbersEveryDriverEvent runs every system through the runner, two
// phases on one provisioned network with a node crashed and restarted in
// each, on a write-ahead log whose replay re-reports the transactions the
// node had committed. Every event a driver reports carries its
// transaction's number: the hub numbers nothing by ID, and every
// transaction reaches its client exactly once.
func TestHubNumbersEveryDriverEvent(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var d *eventCounter
			results, err := coconut.Run(coconut.RunConfig{
				SystemName: c.name,
				NewDriver: func(clk *clock.AutoVirtual) systems.Driver {
					env := systemstest.On(clk)
					env.WAL = fastWAL()
					d = &eventCounter{Driver: c.make(t, env), fired: make(map[uint64]int)}
					return d
				},
				NewClock:        clock.NewAutoVirtual,
				Unit:            []coconut.BenchmarkName{coconut.BenchKeyValueSet, coconut.BenchDoNothing},
				Clients:         4,
				RateLimit:       5,
				WorkloadThreads: 2,
				SendDuration:    2 * time.Second,
				ListenGrace:     time.Second,
				Repetitions:     1,
				Faults: &faults.Schedule{Events: []faults.Event{
					{At: 500 * time.Millisecond, Kind: faults.CrashNode, Node: faultNode},
					{At: time.Second, Kind: faults.RestartNode, Node: faultNode},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Received.Mean == 0 {
					t.Fatalf("%s confirmed nothing", r.Benchmark)
				}
			}
			hub := d.Driver.(interface{ Hub() *systems.Hub }).Hub()
			if n := hub.UnnumberedCount(); n != 0 {
				t.Fatalf("the hub numbered %d transactions by ID: a commit event carried no number", n)
			}
			if stats, _ := d.RecoveryStats(); stats.ReplayedRecords == 0 {
				t.Fatalf("the restarts replayed nothing: %+v", stats)
			}
			for num, n := range d.fired {
				if num == 0 || n != 1 {
					t.Fatalf("transaction %d reached its client %d times, want a number and once", num, n)
				}
			}
			if len(d.fired) < hub.EmittedCount() || hub.EmittedCount() == 0 {
				t.Fatalf("the hub emitted %d transactions, its clients heard of %d", hub.EmittedCount(), len(d.fired))
			}
		})
	}
}
