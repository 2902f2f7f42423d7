package coconut

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"

	"github.com/coconut-bench/coconut/internal/systems"
)

func TestRunRequiresDriver(t *testing.T) {
	if _, err := Run(RunConfig{NewClock: func() *clock.AutoVirtual { return clock.NewAutoVirtual() }}); err == nil {
		t.Fatal("Run without NewDriver must fail")
	}
}

func TestRunRequiresClock(t *testing.T) {
	d := newFakeDriver()
	if _, err := Run(RunConfig{NewDriver: func(*clock.AutoVirtual) systems.Driver { return d }}); err == nil {
		t.Fatal("Run without NewClock must fail")
	}
}

func TestRunRequiresRateLimit(t *testing.T) {
	_, err := Run(RunConfig{
		NewDriver: func(*clock.AutoVirtual) systems.Driver { return newFakeDriver() },
		NewClock:  func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
	})
	if err == nil || !strings.Contains(err.Error(), "RateLimit must be positive") {
		t.Fatalf("err = %v, want a Run without RateLimit rejected", err)
	}
}

// TestRunConfigFillDefaults: RunConfig.fill is the run's one set of
// defaults, so a zero config reaches the clients with the paper's shape —
// four clients of 16 workload threads, uniform pacing, one operation per
// transaction and no batching, three repetitions of DoNothing — and set
// values stay as given.
func TestRunConfigFillDefaults(t *testing.T) {
	var zero RunConfig
	zero.fill()
	if zero.Clients != 4 || zero.WorkloadThreads != 16 || zero.OpsPerTx != 1 || zero.BatchSize != 1 || zero.Repetitions != 3 {
		t.Fatalf("filled clients %d, threads %d, ops/tx %d, batch %d, reps %d; want 4, 16, 1, 1, 3",
			zero.Clients, zero.WorkloadThreads, zero.OpsPerTx, zero.BatchSize, zero.Repetitions)
	}
	if _, ok := zero.Arrival.(UniformArrival); !ok {
		t.Fatalf("filled Arrival = %T, want UniformArrival", zero.Arrival)
	}
	if len(zero.Unit) != 1 || zero.Unit[0] != BenchDoNothing {
		t.Fatalf("filled Unit = %v, want [%s]", zero.Unit, BenchDoNothing)
	}

	set := RunConfig{Clients: 2, WorkloadThreads: 3, OpsPerTx: 50, BatchSize: 100, Repetitions: 1,
		Arrival: PoissonArrival{}, Unit: []BenchmarkName{BenchKeyValueSet}}
	set.fill()
	if set.Clients != 2 || set.WorkloadThreads != 3 || set.OpsPerTx != 50 || set.BatchSize != 100 || set.Repetitions != 1 {
		t.Fatalf("fill changed set values: clients %d, threads %d, ops/tx %d, batch %d, reps %d",
			set.Clients, set.WorkloadThreads, set.OpsPerTx, set.BatchSize, set.Repetitions)
	}
	if _, ok := set.Arrival.(PoissonArrival); !ok || len(set.Unit) != 1 || set.Unit[0] != BenchKeyValueSet {
		t.Fatalf("fill changed set values: Arrival %T, Unit %v", set.Arrival, set.Unit)
	}
}

// TestClientArrivalSeeds: each client and repetition draws its own arrival
// stream from the run's seed, and the same client of the same repetition
// draws the same one.
func TestClientArrivalSeeds(t *testing.T) {
	cfg := RunConfig{ArrivalSeed: 42}
	cfg.fill()
	clk := clock.NewAutoVirtual()
	seed := func(i, rep int) int64 {
		return newClient(&cfg, clk, newFakeDriver(), newTally(nil), i, rep, BenchDoNothing, nil, nil).arrivalSeed
	}
	seen := make(map[int64]string)
	for i := range 4 {
		for rep := range 3 {
			s := seed(i, rep)
			if prev, dup := seen[s]; dup {
				t.Fatalf("client %d repetition %d shares arrival seed %d with %s", i, rep, s, prev)
			}
			seen[s] = fmt.Sprintf("client %d repetition %d", i, rep)
			if again := seed(i, rep); again != s {
				t.Fatalf("client %d repetition %d: arrival seed %d, then %d", i, rep, s, again)
			}
		}
	}
}

// TestRunRejectsBatchesWithoutBatchSubmitter: batching needs a driver that
// takes atomic batches; there is no fallback to single sends.
func TestRunRejectsBatchesWithoutBatchSubmitter(t *testing.T) {
	run := func(batch int) error {
		_, err := Run(RunConfig{
			SystemName: "fake",
			// Embedding the interface hides the fake's SubmitBatch.
			NewDriver:       func(*clock.AutoVirtual) systems.Driver { return struct{ systems.Driver }{newFakeDriver()} },
			NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
			Clients:         1,
			RateLimit:       100,
			WorkloadThreads: 1,
			BatchSize:       batch,
			SendDuration:    50 * time.Millisecond,
			ListenGrace:     20 * time.Millisecond,
			Repetitions:     1,
		})
		return err
	}
	if err := run(5); err == nil || !strings.Contains(err.Error(), "BatchSize 5 needs a driver that submits batches") {
		t.Fatalf("err = %v, want BatchSize 5 on a driver without SubmitBatch rejected", err)
	}
	if err := run(1); err != nil {
		t.Fatalf("BatchSize 1 needs no SubmitBatch: %v", err)
	}
}

// leakyDriver arms an event when it starts and never stops it.
type leakyDriver struct {
	*fakeDriver
	clk *clock.AutoVirtual
}

func (d leakyDriver) Start() error {
	clock.NewEvent(d.clk, "leak", func() {}).After(time.Hour)
	return nil
}

// TestRunReportsLeakedWaiters: every repetition ends with the teardown leak
// check, so a deadline a driver leaves armed fails the run.
func TestRunReportsLeakedWaiters(t *testing.T) {
	_, err := Run(RunConfig{
		SystemName:      "fake",
		NewDriver:       func(clk *clock.AutoVirtual) systems.Driver { return leakyDriver{newFakeDriver(), clk} },
		NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
		Unit:            []BenchmarkName{BenchDoNothing},
		Clients:         1,
		RateLimit:       100,
		WorkloadThreads: 1,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     50 * time.Millisecond,
		Repetitions:     1,
	})
	if err == nil || !strings.Contains(err.Error(), "1 timer/event waiter(s) leaked") {
		t.Fatalf("err = %v, want the leaked timer reported", err)
	}
}

// drainingDriver overrides the chassis' Drained: it reports drained after
// need polls.
type drainingDriver struct {
	*fakeDriver
	mu    sync.Mutex
	polls int
	need  int
}

func (d *drainingDriver) Drained() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.polls++
	return d.polls >= d.need
}

func TestRunnerQuiescesBetweenUnitMembers(t *testing.T) {
	d := &drainingDriver{fakeDriver: newFakeDriver(), need: 3}

	_, err := Run(RunConfig{
		SystemName:      "fake",
		NewDriver:       func(clk *clock.AutoVirtual) systems.Driver { return d },
		Unit:            []BenchmarkName{BenchKeyValueSet, BenchKeyValueGet},
		Clients:         1,
		RateLimit:       100,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
		Repetitions:     1,
		NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.polls < 3 {
		t.Fatalf("Drained polled %d times, want >= 3 (runner must wait)", d.polls)
	}
}

// TestRunnerQuiesceTimeoutBounds: a driver that does not drain costs the
// runner the quiesce bound between two unit members — 8 s of virtual time,
// within one 20 ms poll — and next to no wall time. After the last member
// the runner does not quiesce at all: no result reads that time, so a
// one-member unit's clock stops where its phase ends, at send + grace.
func TestRunnerQuiesceTimeoutBounds(t *testing.T) {
	const send, grace = 50 * time.Millisecond, 20 * time.Millisecond
	run := func(unit ...BenchmarkName) time.Duration {
		t.Helper()
		// The driver drains only after 20 s of polls, so a quiesce that
		// ignores its deadline overshoots the bound by seconds instead of
		// hanging.
		d := &drainingDriver{fakeDriver: newFakeDriver(), need: 1000}
		var clk *clock.AutoVirtual
		start := time.Now()
		_, err := Run(RunConfig{
			SystemName:      "fake",
			NewDriver:       func(*clock.AutoVirtual) systems.Driver { return d },
			Unit:            unit,
			Clients:         1,
			RateLimit:       100,
			WorkloadThreads: 1,
			SendDuration:    send,
			ListenGrace:     grace,
			Repetitions:     1,
			NewClock:        func() *clock.AutoVirtual { clk = clock.NewAutoVirtual(); return clk },
		})
		if err != nil {
			t.Fatal(err)
		}
		if wall := time.Since(start); wall > time.Second {
			t.Fatalf("run took %v of wall time; the quiesce wait must be virtual", wall)
		}
		return clk.Now().Sub(clock.SimEpoch)
	}

	quiesced := run(BenchKeyValueSet, BenchKeyValueGet) - 2*(send+grace)
	if quiesced < quiesceTimeout || quiesced > quiesceTimeout+20*time.Millisecond {
		t.Fatalf("quiesce between members took %v of virtual time, want %v to %v", quiesced, quiesceTimeout, quiesceTimeout+20*time.Millisecond)
	}
	if got := run(BenchDoNothing); got != send+grace {
		t.Fatalf("a one-member unit's clock stopped at %v, want send + grace = %v (no quiesce after the last member)", got, send+grace)
	}
}

// sheddingDriver reports every submission it accepted as shed, through a
// ConflictCounts that is cumulative over the driver's life.
type sheddingDriver struct{ *fakeDriver }

func (d sheddingDriver) ConflictCounts() map[string]uint64 {
	return map[string]uint64{systems.AbortConflictExcluded: uint64(d.submittedCount())}
}

// TestRunnerFoldsConflictDeltasPerPhase: the runner snapshots the driver's
// cumulative counts around each unit member, so each one reports only its
// own sheds.
func TestRunnerFoldsConflictDeltasPerPhase(t *testing.T) {
	d := sheddingDriver{newFakeDriver()}
	results, err := Run(RunConfig{
		SystemName:      "fake",
		NewDriver:       func(clk *clock.AutoVirtual) systems.Driver { return d },
		Unit:            []BenchmarkName{BenchKeyValueSet, BenchKeyValueGet},
		Clients:         1,
		RateLimit:       100,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
		Repetitions:     1,
		NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		shed := r.Conflicts[systems.AbortConflictExcluded].Mean
		if shed == 0 || shed != r.Expected.Mean {
			t.Errorf("%s: %v shed, want the phase's own %v sends", r.Benchmark, shed, r.Expected.Mean)
		}
	}
}
