package experiments

import (
	"fmt"
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
// its net/shard-N delivery events still hold deadlines.
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

// TestShardCountNeverReachesTheModel: the transport sizes its shard set from
// GOMAXPROCS, so which endpoints share a delivery event differs between a
// one-core and an eight-core host. The model's outputs must not: a
// zero-latency and an emulated-WAN cell give equal results at both.
func TestShardCountNeverReachesTheModel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, netem := range []bool{false, true} {
		t.Run(fmt.Sprintf("netem=%v", netem), func(t *testing.T) {
			var results []coconut.Result
			for _, procs := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				opts := Options{Scale: 0.01, SendSeconds: 30, GraceSeconds: 30,
					Seed: 42, Time: "virtual", Netem: netem}
				res, err := runUnitCell(systems.NameQuorum, coconut.BenchKeyValueSet, Params{RL: 400}, opts, 0, nil, "")
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
