package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/systems"
)

// TestNetemCellsCompleteUnderVirtualTime runs one emulated-WAN cell per
// transport-backed system to completion on the auto-advancing clock. The
// driver builds the netem transport, so the driver stops it; a transport
// nobody stops shows up here as "waiter(s) leaked at repetition teardown":
// its net/shard-0 delivery event still holds a deadline.
func TestNetemCellsCompleteUnderVirtualTime(t *testing.T) {
	for _, system := range []string{
		systems.NameFabric, systems.NameQuorum, systems.NameSawtooth,
		systems.NameDiem, systems.NameBitShares,
	} {
		t.Run(system, func(t *testing.T) {
			meter := &clockMeter{}
			opts := Options{Scale: 0.01, SendSeconds: 30, GraceSeconds: 30,
				Seed: 42, Time: "virtual", Netem: true, meter: meter}
			res, err := runUnitCell(system, coconut.BenchDoNothing, Params{RL: 200}, opts, 0, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Received.Mean <= 0 {
				t.Fatalf("netem cell confirmed nothing: %+v", res)
			}
			if len(meter.clks) == 0 {
				t.Fatal("the cell built no clock")
			}
			for _, c := range meter.clks {
				if n := c.PendingWaiters(); n != 0 {
					t.Fatalf("PendingWaiters = %d after the cell, want 0", n)
				}
			}
		})
	}
}

// TestCoreCountNeverReachesTheModel: nothing below the engine may size
// itself from the host. The transport once built min(8, GOMAXPROCS) delivery
// shards, and which endpoints shared one decided the order of same-instant
// deliveries — invisible on four nodes, two rows of Figure 5 on thirty-two.
// The cells run through runUnitCell, below the engine's one-P pin, so the
// model itself is what must not move: a zero-latency and an emulated-WAN
// 4-node cell and Figure 5's 32-node Quorum cell give equal results at
// GOMAXPROCS 1 and 8.
func TestCoreCountNeverReachesTheModel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	best, ok := BestCell(systems.NameQuorum, coconut.BenchDoNothing)
	if !ok {
		t.Fatal("no Figure 3 cell for Quorum DoNothing")
	}
	small := Options{Scale: 0.01, SendSeconds: 30, GraceSeconds: 30, Seed: 42, Time: "virtual"}
	wan, figure5 := small, small
	wan.Netem = true
	// A third of Figure 5's send window reaches the first reordered tie.
	figure5.Netem, figure5.Nodes, figure5.SendSeconds = true, 32, 100
	for _, tc := range []struct {
		name    string
		bench   coconut.BenchmarkName
		params  Params
		opts    Options
		threads int
	}{
		{"netem=false", coconut.BenchKeyValueSet, Params{RL: 400}, small, 0},
		{"netem=true", coconut.BenchKeyValueSet, Params{RL: 400}, wan, 0},
		{"figure5 n=32", coconut.BenchDoNothing, best.Params, figure5, benchGridThreads},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var results []coconut.Result
			for _, procs := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				res, err := runUnitCell(systems.NameQuorum, tc.bench, tc.params, tc.opts, tc.threads, nil, "")
				if err != nil {
					t.Fatal(err)
				}
				if res.Received.Mean <= 0 {
					t.Fatalf("GOMAXPROCS=%d: cell confirmed nothing: %+v", procs, res)
				}
				results = append(results, res)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("results differ between GOMAXPROCS 1 and 8:\n%+v\n%+v", results[0], results[1])
			}
		})
	}
}
