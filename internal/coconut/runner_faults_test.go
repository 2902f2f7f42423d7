package coconut

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/systems"
)

// TestRunnerNoFaultFullAvailability: a healthy run must report 100%
// availability, zero recovery time, and a populated timeline. The empty
// schedule turns the timeline on and injects nothing.
func TestRunnerNoFaultFullAvailability(t *testing.T) {
	results, err := Run(RunConfig{
		SystemName:      "fake",
		NewDriver:       func(clk *clock.AutoVirtual) systems.Driver { return newFakeDriver() },
		Unit:            []BenchmarkName{BenchDoNothing},
		Clients:         1,
		RateLimit:       400,
		WorkloadThreads: 2,
		SendDuration:    400 * time.Millisecond,
		ListenGrace:     100 * time.Millisecond,
		Faults:          &faults.Schedule{},
		Repetitions:     1,
		NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Availability.Mean != 1 {
		t.Fatalf("no-fault availability = %v, want 1", r.Availability.Mean)
	}
	if r.RecoverySec.Mean != 0 {
		t.Fatalf("no-fault recovery = %v, want 0", r.RecoverySec.Mean)
	}
	rep := r.Repetitions[0]
	if !rep.Recovered {
		t.Fatal("no-fault run reported not recovered")
	}
	if len(rep.Windows) == 0 {
		t.Fatal("timeline not collected")
	}
}

// TestRunnerPartitionDipAndRecovery: a scripted mid-run partition must
// show a throughput dip in the windowed timeline, availability below 1,
// and a finite recovery time once healed.
func TestRunnerPartitionDipAndRecovery(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{At: 150 * time.Millisecond, Kind: faults.Partition, Group: []int{3}},
		{At: 350 * time.Millisecond, Kind: faults.Heal},
	}}
	results, err := Run(RunConfig{
		SystemName:      "fake",
		NewDriver:       func(clk *clock.AutoVirtual) systems.Driver { return newFakeDriver() },
		Unit:            []BenchmarkName{BenchDoNothing},
		Clients:         1,
		RateLimit:       400,
		WorkloadThreads: 2,
		SendDuration:    500 * time.Millisecond, // 25 ms timeline windows
		ListenGrace:     150 * time.Millisecond,
		Faults:          sched,
		Repetitions:     1,
		NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := results[0].Repetitions[0]

	if rep.Availability >= 1 {
		t.Fatalf("availability = %v, want < 1 during a partition", rep.Availability)
	}
	if rep.Availability <= 0 {
		t.Fatalf("availability = %v, want > 0 (the run was not dead)", rep.Availability)
	}

	// The timeline must show the dip: a zero-confirmation window strictly
	// between windows with confirmations.
	sawDip := false
	seenRecv := false
	for _, w := range rep.Windows {
		if w.Received > 0 {
			if seenRecv && sawDip {
				break
			}
			seenRecv = true
			continue
		}
		if seenRecv {
			sawDip = true
		}
	}
	if !sawDip {
		t.Fatalf("timeline shows no throughput dip: %+v", rep.Windows)
	}

	if !rep.Recovered {
		t.Fatal("partition-heal run did not recover")
	}
	if rep.RecoverySec <= 0 || rep.RecoverySec > 0.5 {
		t.Fatalf("recovery = %vs, want finite and within the run", rep.RecoverySec)
	}

	// Deferred confirmations flush on heal: nothing submitted before the
	// partition may be lost.
	if rep.ReceivedNoT == 0 || rep.ReceivedNoT > rep.ExpectedNoT {
		t.Fatalf("NoT accounting broken: %d/%d", rep.ReceivedNoT, rep.ExpectedNoT)
	}
}

// TestRunnerRejectsInvalidSchedule: schedules are validated against the
// run length and node count before any load is generated.
func TestRunnerRejectsInvalidSchedule(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{At: 10 * time.Second, Kind: faults.CrashNode, Node: 0}, // past run end
	}}
	_, err := Run(RunConfig{
		SystemName:   "fake",
		NewDriver:    func(clk *clock.AutoVirtual) systems.Driver { return newFakeDriver() },
		Unit:         []BenchmarkName{BenchDoNothing},
		Clients:      1,
		RateLimit:    100,
		SendDuration: 100 * time.Millisecond,
		ListenGrace:  50 * time.Millisecond,
		Faults:       sched,
		Repetitions:  1,
		NewClock:     func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
	})
	if err == nil {
		t.Fatal("runner accepted a schedule reaching past the run end")
	}
}
