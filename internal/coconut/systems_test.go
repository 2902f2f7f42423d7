package coconut_test

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
	"github.com/coconut-bench/coconut/internal/workload"
)

// best returns a NewDriver that builds system through the constructor table
// at its Figure 3 cell for bench, on each repetition's clock.
func best(t *testing.T, system string, bench coconut.BenchmarkName) func(clk *clock.AutoVirtual) systems.Driver {
	t.Helper()
	cell, ok := experiments.BestCell(system, bench)
	if !ok {
		t.Fatalf("no Figure 3 cell for %s %s", system, bench)
	}
	return func(clk *clock.AutoVirtual) systems.Driver {
		d, err := experiments.NewDriver(system, systemstest.On(clk), cell.Params)
		if err != nil {
			panic(err)
		}
		return d
	}
}

// virtual is the runner's clock factory for these tests.
func virtual() *clock.AutoVirtual { return clock.NewAutoVirtual() }

func TestRunFabricDoNothingUnit(t *testing.T) {
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      systems.NameFabric,
		NewDriver:       best(t, systems.NameFabric, coconut.BenchDoNothing),
		NewClock:        virtual,
		Unit:            []coconut.BenchmarkName{coconut.BenchDoNothing},
		Clients:         2,
		RateLimit:       200,
		WorkloadThreads: 4,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     200 * time.Millisecond,
		Repetitions:     2,
		Params:          map[string]string{"MM": "1000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	r := results[0]
	if r.MTPS.Mean <= 0 {
		t.Fatalf("MTPS = %v, want > 0", r.MTPS.Mean)
	}
	if r.Received.Mean <= 0 {
		t.Fatal("no transactions received end to end")
	}
	if r.Received.Mean > r.Expected.Mean {
		t.Fatal("received exceeds expected")
	}
	if r.MTPS.N != 2 {
		t.Fatalf("repetitions = %d, want 2", r.MTPS.N)
	}
}

func TestRunKeyValueUnitGetFindsSetKeys(t *testing.T) {
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      systems.NameFabric,
		NewDriver:       best(t, systems.NameFabric, coconut.BenchKeyValueSet),
		NewClock:        virtual,
		Unit:            []coconut.BenchmarkName{coconut.BenchKeyValueSet, coconut.BenchKeyValueGet},
		Clients:         2,
		RateLimit:       100,
		WorkloadThreads: 2,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     300 * time.Millisecond,
		Repetitions:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	set, get := results[0], results[1]
	if set.Benchmark != string(coconut.BenchKeyValueSet) || get.Benchmark != string(coconut.BenchKeyValueGet) {
		t.Fatal("unit order wrong")
	}
	if get.Received.Mean <= 0 {
		t.Fatal("Get phase received nothing; read keys must match written keys")
	}
	// Fabric validates Get reads: if keys were missing, events would carry
	// ValidOK=false and, since the endorsement failed too, the read-set
	// would be empty — the strongest signal is simply that gets flowed.
	if get.MTPS.Mean <= 0 {
		t.Fatal("Get MTPS is zero")
	}
}

func TestRunBankingUnitOnQuorum(t *testing.T) {
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      systems.NameQuorum,
		NewDriver:       best(t, systems.NameQuorum, coconut.BenchCreateAccount),
		NewClock:        virtual,
		Unit:            []coconut.BenchmarkName{coconut.BenchCreateAccount, coconut.BenchSendPayment, coconut.BenchBalance},
		Clients:         2,
		RateLimit:       100,
		WorkloadThreads: 2,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     300 * time.Millisecond,
		Repetitions:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for i, r := range results {
		if r.Received.Mean <= 0 {
			t.Fatalf("unit member %d (%s) received nothing", i, r.Benchmark)
		}
	}
}

// TestRunSawtoothBatches runs Sawtooth's DoNothing cell as the paper does:
// 100-transaction batches, one published per 1.025 s block.
func TestRunSawtoothBatches(t *testing.T) {
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      systems.NameSawtooth,
		NewDriver:       best(t, systems.NameSawtooth, coconut.BenchDoNothing),
		NewClock:        virtual,
		Unit:            []coconut.BenchmarkName{coconut.BenchDoNothing},
		Clients:         2,
		RateLimit:       100,
		WorkloadThreads: 2,
		BatchSize:       100,
		SendDuration:    3 * time.Second,
		ListenGrace:     3 * time.Second,
		Repetitions:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Received.Mean <= 0 {
		t.Fatal("batched run received nothing")
	}
}

// TestRunStageBreakdown runs a real driver and checks the invariants of
// stage attribution: every received payload resolves into stages, stage
// means are non-negative, the bottleneck is named, and the per-stage means
// sum back to the end-to-end MFLS (the stages partition the finalization
// window exactly).
func TestRunStageBreakdown(t *testing.T) {
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      systems.NameQuorum,
		NewDriver:       best(t, systems.NameQuorum, coconut.BenchKeyValueSet),
		NewClock:        virtual,
		Unit:            []coconut.BenchmarkName{coconut.BenchKeyValueSet},
		Clients:         2,
		RateLimit:       200,
		WorkloadThreads: 4,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     200 * time.Millisecond,
		Repetitions:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Received.Mean <= 0 {
		t.Fatal("nothing received; stage attribution untestable")
	}
	if len(r.Stages) == 0 {
		t.Fatal("no stage breakdown on an instrumented driver")
	}
	if r.Bottleneck == "" {
		t.Fatal("bottleneck not named")
	}
	var sum float64
	for _, sr := range r.Stages {
		if sr.Mean.Mean < 0 {
			t.Fatalf("stage %s mean = %v, want >= 0", sr.Stage, sr.Mean.Mean)
		}
		if sr.Ops.Mean <= 0 {
			t.Fatalf("stage %s carries no ops", sr.Stage)
		}
		sum += sr.Mean.Mean
	}
	// Stage durations partition [send, confirm] per payload, so the ops-
	// weighted stage means must sum to the MFLS up to the per-stage
	// nanosecond truncation.
	if diff := sum - r.MFLS.Mean; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("stage means sum to %v, MFLS %v (diff %v)", sum, r.MFLS.Mean, diff)
	}
}

// runContention executes one seeded workload phase against a driver.
func runContention(t *testing.T, name string, newDriver func(clk *clock.AutoVirtual) systems.Driver, spec workload.Spec) coconut.Result {
	t.Helper()
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      name,
		NewDriver:       newDriver,
		NewClock:        virtual,
		Workload:        &spec,
		Clients:         2,
		RateLimit:       400,
		WorkloadThreads: 4,
		SendDuration:    800 * time.Millisecond,
		ListenGrace:     400 * time.Millisecond,
		Repetitions:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	return results[0]
}

// Skewed read/write traffic over a shared key space must provoke Fabric's
// MVCC read conflicts: raw committed throughput stays up (invalid
// transactions are appended, §5.4) while goodput drops below it.
func TestContentionFabricMVCCAborts(t *testing.T) {
	spec := workload.Spec{Dist: workload.Zipfian{S: 1.3}, Mix: workload.KVMix{ReadPct: 50}, Keys: 32, Seed: 7}
	r := runContention(t, systems.NameFabric, best(t, systems.NameFabric, coconut.BenchKeyValueSet), spec)

	if r.Benchmark != spec.Name() {
		t.Fatalf("benchmark label = %q, want %q", r.Benchmark, spec.Name())
	}
	if r.Received.Mean <= 0 {
		t.Fatal("nothing received end to end")
	}
	if r.AbortRate.Mean <= 0 {
		t.Fatalf("abort rate = %v, want > 0 under zipfian contention", r.AbortRate.Mean)
	}
	if r.Valid.Mean >= r.Received.Mean {
		t.Fatalf("valid %v >= received %v, want goodput gap", r.Valid.Mean, r.Received.Mean)
	}
	if r.Goodput.Mean >= r.MTPS.Mean {
		t.Fatalf("goodput %v >= raw TPS %v", r.Goodput.Mean, r.MTPS.Mean)
	}
	if r.Conflicts[systems.AbortMVCCConflict].Mean <= 0 {
		t.Fatalf("conflicts = %v, want mvcc-conflict > 0", r.Conflicts)
	}
}

// The SmallBank family on an order-execute account-model system must
// produce semantic aborts (insufficient funds) as hot balances drain, with
// the failed transactions still committed in blocks.
func TestContentionQuorumSmallBankAborts(t *testing.T) {
	spec := workload.Spec{Dist: workload.Zipfian{S: 1.3}, Mix: workload.SmallBank{}, Keys: 16, Seed: 11}
	r := runContention(t, systems.NameQuorum, best(t, systems.NameQuorum, coconut.BenchSendPayment), spec)

	if r.Received.Mean <= 0 {
		t.Fatal("nothing received end to end")
	}
	if r.AbortRate.Mean <= 0 {
		t.Fatalf("abort rate = %v, want > 0 under smallbank contention", r.AbortRate.Mean)
	}
	if r.Conflicts[systems.AbortInsufficientFunds].Mean <= 0 {
		t.Fatalf("conflicts = %v, want insufficient-funds > 0", r.Conflicts)
	}
	if r.Goodput.Mean >= r.MTPS.Mean {
		t.Fatalf("goodput %v >= raw TPS %v", r.Goodput.Mean, r.MTPS.Mean)
	}
}

// The paper-faithful partitioned control must stay conflict-free: goodput
// equals raw throughput and the breakdown is empty, for the KV mix and for
// the sliced SmallBank family alike.
func TestContentionPartitionedIsConflictFree(t *testing.T) {
	for _, spec := range []workload.Spec{
		{Dist: workload.Partitioned{}, Mix: workload.KVMix{ReadPct: 50}, Keys: 32, Seed: 7},
		{Dist: workload.Partitioned{}, Mix: workload.SmallBank{}, Keys: 256, Seed: 7},
	} {
		r := runContention(t, systems.NameFabric, best(t, systems.NameFabric, coconut.BenchKeyValueSet), spec)
		if r.Received.Mean <= 0 {
			t.Fatalf("%s: nothing received", spec.Name())
		}
		if r.AbortRate.Mean != 0 {
			t.Fatalf("%s: abort rate = %v, want 0", spec.Name(), r.AbortRate.Mean)
		}
		if r.Valid.Mean != r.Received.Mean {
			t.Fatalf("%s: valid %v != received %v", spec.Name(), r.Valid.Mean, r.Received.Mean)
		}
		if len(r.Conflicts) != 0 {
			t.Fatalf("%s: conflicts = %v, want none", spec.Name(), r.Conflicts)
		}
	}
}
