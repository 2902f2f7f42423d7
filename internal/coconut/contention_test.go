package coconut

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/fabric"
	"github.com/coconut-bench/coconut/internal/systems/quorum"
	"github.com/coconut-bench/coconut/internal/workload"
)

// runContention executes one seeded workload phase against a driver.
func runContention(t *testing.T, name string, newDriver func(clk clock.Clock) systems.Driver, spec workload.Spec) Result {
	t.Helper()
	results, err := Run(RunConfig{
		SystemName:      name,
		NewDriver:       newDriver,
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

func newContentionFabric(clk clock.Clock) systems.Driver {
	return fabric.New(fabric.Config{
		MaxMessageCount: 50,
		BatchTimeout:    10 * time.Millisecond,
		Clock:           clk,
	})
}

// Skewed read/write traffic over a shared key space must provoke Fabric's
// MVCC read conflicts: raw committed throughput stays up (invalid
// transactions are appended, §5.4) while goodput drops below it.
func TestContentionFabricMVCCAborts(t *testing.T) {
	spec := workload.Spec{Dist: workload.Zipfian{S: 1.3}, Mix: workload.KVMix{ReadPct: 50}, Keys: 32, Seed: 7}
	r := runContention(t, systems.NameFabric, newContentionFabric, spec)

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
	r := runContention(t, systems.NameQuorum, func(clk clock.Clock) systems.Driver {
		return quorum.New(quorum.Config{BlockPeriod: 10 * time.Millisecond, Clock: clk})
	}, spec)

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
		r := runContention(t, systems.NameFabric, newContentionFabric, spec)
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

// A workload whose setup the driver fails to preload must fail the run,
// naming the workload, rather than silently measuring key-not-found noise.
func TestContentionPreloadFailureFailsRun(t *testing.T) {
	spec := workload.Spec{Dist: workload.Zipfian{}, Mix: workload.SmallBank{}, Keys: 8, Seed: 1}
	_, err := Run(RunConfig{
		SystemName:      "failing-preload",
		NewDriver:       func(clk clock.Clock) systems.Driver { return failingPreloadDriver{newFakeDriver()} },
		Workload:        &spec,
		Clients:         1,
		RateLimit:       10,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     10 * time.Millisecond,
		Repetitions:     1,
	})
	if err == nil || !strings.Contains(err.Error(), spec.Name()) || !errors.Is(err, errPreloadRefused) {
		t.Fatalf("err = %v, want the preload failure naming workload %q", err, spec.Name())
	}
}

var errPreloadRefused = errors.New("preload refused")

// failingPreloadDriver is a fake whose Preload always fails.
type failingPreloadDriver struct{ *fakeDriver }

func (failingPreloadDriver) Preload([]chain.Operation) error { return errPreloadRefused }
