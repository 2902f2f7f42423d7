package experiments

import (
	"testing"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/systems"
)

// TestNetemCellsCompleteUnderVirtualTime runs one emulated-WAN cell per
// transport-backed system to completion on the auto-advancing clock. The
// driver builds the netem transport, so the driver stops it; a transport
// nobody stops shows up here as "waiter(s) leaked at repetition teardown"
// or as a deadlock naming its net/shard-N workers.
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
				if n := c.(interface{ PendingWaiters() int }).PendingWaiters(); n != 0 {
					t.Fatalf("PendingWaiters = %d after the cell, want 0", n)
				}
			}
		})
	}
}
