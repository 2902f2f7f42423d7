package experiments

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/systems"
)

func TestRunContentionQuorumSmallBank(t *testing.T) {
	sc := NewContentionScenario([]string{"smallbank"}, []string{"zipfian:1.30"}, 16)
	sc.Systems = []string{systems.NameQuorum}

	var events []Progress
	opts := Options{SendSeconds: 60, Repetitions: 1, Seed: 42,
		Progress: func(p Progress) { events = append(events, p) }}
	outcome, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(outcome.Rows))
	}
	r := outcome.Rows[0].Result
	if r.Received.Mean <= 0 {
		t.Fatal("nothing received")
	}
	if r.AbortRate.Mean <= 0 {
		t.Fatalf("abort rate = %v, want > 0 (hot accounts must drain)", r.AbortRate.Mean)
	}
	if r.Goodput.Mean >= r.MTPS.Mean {
		t.Fatalf("goodput %v >= MTPS %v", r.Goodput.Mean, r.MTPS.Mean)
	}
	if _, ok := r.Conflicts["insufficient-funds"]; !ok {
		t.Fatalf("conflict breakdown lacks insufficient-funds: %v", r.Conflicts)
	}
	if outcome.Rows[0].Workload == "" || !strings.Contains(outcome.Rows[0].Workload, "smallbank") {
		t.Fatalf("row workload label = %q", outcome.Rows[0].Workload)
	}

	// The progress callback replaces the old io.Writer side-channel: one
	// start event (nil Result) and one completion event per cell.
	if len(events) != 2 {
		t.Fatalf("progress events = %d, want 2", len(events))
	}
	if events[0].Result != nil || events[1].Result == nil {
		t.Fatalf("event order wrong: %+v", events)
	}
	if events[1].Index != 1 || events[1].Total != 1 || events[1].System != systems.NameQuorum {
		t.Fatalf("completion event = %+v", events[1])
	}
}

func TestRunRejectsInvalidScenario(t *testing.T) {
	fast := Scenario{Systems: []string{systems.NameQuorum}, Benchmarks: []string{"DoNothing"}}
	withOpts := func(f func(*Options)) Options {
		o := fastOptions()
		f(&o)
		return o
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
		o    Options
	}{
		{"unknown system", Scenario{Systems: []string{"NotAChain"}}, fastOptions()},
		{"unknown mix", NewContentionScenario([]string{"nope"}, []string{"zipfian"}, 0), fastOptions()},
		{"unknown skew", NewContentionScenario([]string{"write"}, []string{"nope"}, 0), fastOptions()},
		{"NaN scale", fast, withOpts(func(o *Options) { o.Scale = math.NaN() })},
		{"+Inf scale", fast, withOpts(func(o *Options) { o.Scale = math.Inf(1) })},
		{"-Inf scale", fast, withOpts(func(o *Options) { o.Scale = math.Inf(-1) })},
		{"NaN send", fast, withOpts(func(o *Options) { o.SendSeconds = math.NaN() })},
		{"+Inf send", fast, withOpts(func(o *Options) { o.SendSeconds = math.Inf(1) })},
		{"-Inf grace", fast, withOpts(func(o *Options) { o.GraceSeconds = math.Inf(-1) })},
		{"NaN grace", fast, withOpts(func(o *Options) { o.GraceSeconds = math.NaN() })},
	} {
		if _, err := Run(context.Background(), tc.sc, tc.o); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestOptionsValidateAcceptsOnlyTheVirtualClock: "" and "virtual" both name
// the one clock; the removed "real" fails with an error that says so, and
// Run refuses it before building anything.
func TestOptionsValidateAcceptsOnlyTheVirtualClock(t *testing.T) {
	for _, ok := range []string{"", "virtual"} {
		if err := (Options{Time: ok}).Validate(); err != nil {
			t.Fatalf("Time %q: %v", ok, err)
		}
	}
	err := Options{Time: "real"}.Validate()
	if err == nil || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("Time \"real\": err = %v, want one saying the mode was removed", err)
	}
	if err := (Options{Time: "wall"}).Validate(); err == nil {
		t.Fatal("Time \"wall\" validated")
	}
	sc := Scenario{Systems: []string{systems.NameQuorum}, Benchmarks: []string{"DoNothing"}}
	if _, err := Run(context.Background(), sc, Options{Time: "real"}); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("Run with Time \"real\": err = %v", err)
	}
}

// TestRunDefaultsToTheVirtualClock: Options with no Time run on the virtual
// clock, so every cell reports the simulated time it covered and its
// clock's counters.
func TestRunDefaultsToTheVirtualClock(t *testing.T) {
	sc := Scenario{Systems: []string{systems.NameFabric}, Benchmarks: []string{"DoNothing"}}
	oc, err := Run(context.Background(), sc, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(oc.Timings) != 1 {
		t.Fatalf("timings = %d, want one for the one cell", len(oc.Timings))
	}
	if tm := oc.Timings[0]; tm.SimSeconds <= 0 || tm.TimerFires <= 0 {
		t.Fatalf("cell timing %+v: want simulated seconds and timer fires", tm)
	}
}

func TestRunHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc, err := ScenarioByName("figure3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, sc, fastOptions()); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled run returned %v", err)
	}
}

// TestEveryCellCollectsItsOwnGarbage pins the engine's memory isolation: a
// collection completes between each cell's start and completion event, even
// for cells far too small to reach the pacer's 4 MB first goal, so no cell
// runs on top of its predecessor's dead heap.
func TestEveryCellCollectsItsOwnGarbage(t *testing.T) {
	sc := Scenario{Name: "gc", Systems: []string{systems.NameFabric, systems.NameBitShares}, Benchmarks: []string{"DoNothing"}}
	opts := fastOptions()
	var cycles []uint32
	opts.Progress = func(Progress) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		cycles = append(cycles, m.NumGC)
	}
	if _, err := Run(context.Background(), sc, opts); err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 4 {
		t.Fatalf("progress events = %d, want 4", len(cycles))
	}
	for i := 0; i < len(cycles); i += 2 {
		if cycles[i+1] == cycles[i] {
			t.Fatalf("cell %d finished without a collection (NumGC %d)", i/2+1, cycles[i])
		}
	}
}

// TestContentionUnderChaosEndToEnd runs the composed scenario the bespoke
// runners could not express — skewed SmallBank across a partition-heal —
// on all seven systems, and checks every row carries a seeded per-window
// goodput timeline. It runs on the virtual clock: nothing it checks is about
// wall time, and on the wall clock it slept for a minute.
func TestContentionUnderChaosEndToEnd(t *testing.T) {
	sc, err := ScenarioByName("contention-under-chaos")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: 0.004, SendSeconds: 150, GraceSeconds: 60, Repetitions: 1, Seed: 42}
	outcome, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(outcome.Rows) != len(FaultScenarioSystems) {
		t.Fatalf("rows = %d, want all %d systems", len(outcome.Rows), len(FaultScenarioSystems))
	}
	for i, row := range outcome.Rows {
		if row.System != FaultScenarioSystems[i] {
			t.Fatalf("row %d system = %s, want %s (deterministic order)", i, row.System, FaultScenarioSystems[i])
		}
		if row.Faults != faults.PresetPartitionHeal {
			t.Fatalf("%s: fault label = %q", row.System, row.Faults)
		}
		if !strings.Contains(row.Workload, "smallbank") {
			t.Fatalf("%s: workload label = %q", row.System, row.Workload)
		}
		rep := row.Result.Repetitions[0]
		if len(rep.Windows) == 0 {
			t.Fatalf("%s: no goodput timeline collected", row.System)
		}
		recvTotal, validTotal := 0, 0
		for _, w := range rep.Windows {
			if w.Valid > w.Received {
				t.Fatalf("%s: window valid %d > received %d", row.System, w.Valid, w.Received)
			}
			recvTotal += w.Received
			validTotal += w.Valid
		}
		if recvTotal != rep.ReceivedNoT {
			t.Fatalf("%s: timeline received %d != repetition %d", row.System, recvTotal, rep.ReceivedNoT)
		}
		if validTotal != rep.ValidNoT {
			t.Fatalf("%s: timeline valid %d != repetition %d", row.System, validTotal, rep.ValidNoT)
		}
	}

	// The partition must actually bite somewhere: at least one system
	// reports reduced availability, and at least one commits invalid
	// payloads under the skewed SmallBank load.
	dipped, aborted := false, false
	for _, row := range outcome.Rows {
		if row.Result.Availability.Mean < 0.999 {
			dipped = true
		}
		if row.Result.AbortRate.Mean > 0 {
			aborted = true
		}
	}
	if !dipped {
		t.Error("no system's availability dipped under the partition")
	}
	if !aborted {
		t.Error("no system aborted under the skewed SmallBank load")
	}
}

// TestEngineSeedStability re-runs one contention-under-chaos cell at the
// same seed on the virtual clock, where the operation streams, the schedule
// and the window bucketing are all functions of the seed: the rows, and the
// scheduler's own counters, must be equal, not close.
func TestEngineSeedStability(t *testing.T) {
	sc, err := ScenarioByName("contention-under-chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc.Systems = []string{systems.NameQuorum}
	opts := Options{Scale: 0.004, SendSeconds: 120, GraceSeconds: 60, Repetitions: 1, Seed: 42}

	measure := func() *Outcome {
		outcome, err := Run(context.Background(), sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		return outcome
	}
	a, b := measure(), measure()
	rep := a.Rows[0].Result.Repetitions[0]
	if rep.ValidNoT == 0 || len(rep.Windows) == 0 {
		t.Fatalf("goodput timeline empty: %+v", rep)
	}
	if len(rep.Conflicts) == 0 {
		t.Fatal("skewed SmallBank produced no conflicts")
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("same seed, different rows:\n%+v\n%+v", a.Rows, b.Rows)
	}
	// So must what the clock did to produce them; only the wall-clock
	// half of a CellTiming may differ between the runs.
	ta, tb := a.Timings[0], b.Timings[0]
	if ta.Events == 0 || ta.TimerFires == 0 {
		t.Fatalf("clock counters not collected: %+v", ta)
	}
	ta.WallSeconds, ta.Speedup, tb.WallSeconds, tb.Speedup = 0, 0, 0, 0
	if ta != tb {
		t.Fatalf("same seed, different clock counters:\n%+v\n%+v", ta, tb)
	}
}

// TestInlineScheduleScalesToPaperTime pins the paper-time contract for
// inline schedules: a "90s" event at Scale 0.01 fires 0.9s into the run.
func TestInlineScheduleScalesToPaperTime(t *testing.T) {
	spec := &FaultSpec{Schedule: &faults.Schedule{Events: []faults.Event{
		{At: 90 * time.Second, Kind: faults.Partition, Group: []int{3}},
		{At: 180 * time.Second, Kind: faults.Heal},
		{At: 200 * time.Second, Kind: faults.SlowNode, Node: 0, Extra: 10 * time.Second, Loss: 0.01},
	}}}
	o := Options{Scale: 0.01, SendSeconds: 300}
	o.fill()
	sched, label, err := resolveFaults(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if label != "inline" {
		t.Fatalf("label = %q, want inline", label)
	}
	if got := sched.Events[0].At; got != 900*time.Millisecond {
		t.Fatalf("scaled partition offset = %v, want 900ms", got)
	}
	if got := sched.Events[2].Extra; got != 100*time.Millisecond {
		t.Fatalf("scaled extra latency = %v, want 100ms", got)
	}
	// The original spec is untouched (the engine scales a copy).
	if spec.Schedule.Events[0].At != 90*time.Second {
		t.Fatal("resolveFaults mutated the scenario's schedule")
	}
}
