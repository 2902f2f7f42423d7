package coconut

import (
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"

	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/fabric"
	"github.com/coconut-bench/coconut/internal/systems/quorum"
	"github.com/coconut-bench/coconut/internal/systems/sawtooth"
)

func TestRunFabricDoNothingUnit(t *testing.T) {
	results, err := Run(RunConfig{
		SystemName: systems.NameFabric,
		NewDriver: func(clk clock.Clock) systems.Driver {
			return fabric.New(fabric.Config{
				MaxMessageCount: 50,
				BatchTimeout:    10 * time.Millisecond,
			})
		},
		Unit:            []BenchmarkName{BenchDoNothing},
		Clients:         2,
		RateLimit:       200,
		WorkloadThreads: 4,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     200 * time.Millisecond,
		Repetitions:     2,
		Params:          map[string]string{"MM": "50"},
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
	results, err := Run(RunConfig{
		SystemName: systems.NameFabric,
		NewDriver: func(clk clock.Clock) systems.Driver {
			return fabric.New(fabric.Config{
				MaxMessageCount: 20,
				BatchTimeout:    10 * time.Millisecond,
			})
		},
		Unit:            []BenchmarkName{BenchKeyValueSet, BenchKeyValueGet},
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
	if set.Benchmark != string(BenchKeyValueSet) || get.Benchmark != string(BenchKeyValueGet) {
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
	results, err := Run(RunConfig{
		SystemName: systems.NameQuorum,
		NewDriver: func(clk clock.Clock) systems.Driver {
			return quorum.New(quorum.Config{BlockPeriod: 10 * time.Millisecond})
		},
		Unit:            []BenchmarkName{BenchCreateAccount, BenchSendPayment, BenchBalance},
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

func TestRunSawtoothBatches(t *testing.T) {
	results, err := Run(RunConfig{
		SystemName: systems.NameSawtooth,
		NewDriver: func(clk clock.Clock) systems.Driver {
			return sawtooth.New(sawtooth.Config{
				BlockPublishingDelay: 10 * time.Millisecond,
				QueueDepth:           1000,
			})
		},
		Unit:            []BenchmarkName{BenchDoNothing},
		Clients:         2,
		RateLimit:       400,
		WorkloadThreads: 2,
		BatchSize:       10,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     300 * time.Millisecond,
		Repetitions:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Received.Mean <= 0 {
		t.Fatal("batched run received nothing")
	}
}

func TestRunRequiresDriver(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Fatal("Run without NewDriver must fail")
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
		NewDriver:       func(clk clock.Clock) systems.Driver { return d },
		Unit:            []BenchmarkName{BenchKeyValueSet, BenchKeyValueGet},
		Clients:         1,
		RateLimit:       100,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
		QuiesceTimeout:  2 * time.Second,
		Repetitions:     1,
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

func TestRunnerQuiesceTimeoutBounds(t *testing.T) {
	d := &drainingDriver{fakeDriver: newFakeDriver(), need: 1 << 30} // never drains

	start := time.Now()
	_, err := Run(RunConfig{
		SystemName:      "fake",
		NewDriver:       func(clk clock.Clock) systems.Driver { return d },
		Unit:            []BenchmarkName{BenchDoNothing},
		Clients:         1,
		RateLimit:       100,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
		QuiesceTimeout:  200 * time.Millisecond,
		Repetitions:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("run took %v; quiesce timeout not bounding the wait", elapsed)
	}
}

// TestRunStageBreakdownRealAndVirtual runs a real driver under both clock
// modes and checks the tentpole invariants of stage attribution: every
// received payload resolves into stages, stage means are non-negative, the
// bottleneck is named, and the per-stage means sum back to the end-to-end
// MFLS (the stages partition the finalization window exactly).
func TestRunStageBreakdownRealAndVirtual(t *testing.T) {
	for _, mode := range []string{"real", "virtual"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cfg := RunConfig{
				SystemName: systems.NameQuorum,
				NewDriver: func(clk clock.Clock) systems.Driver {
					return quorum.New(quorum.Config{Clock: clk, BlockPeriod: 10 * time.Millisecond})
				},
				Unit:            []BenchmarkName{BenchKeyValueSet},
				Clients:         2,
				RateLimit:       200,
				WorkloadThreads: 4,
				SendDuration:    300 * time.Millisecond,
				ListenGrace:     200 * time.Millisecond,
				Repetitions:     1,
			}
			if mode == "virtual" {
				cfg.NewClock = func() clock.Clock { return clock.NewAutoVirtual() }
			}
			results, err := Run(cfg)
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
			// Stage durations partition [send, confirm] per payload, so the
			// ops-weighted stage means must sum to the MFLS up to the per-
			// stage nanosecond truncation.
			if diff := sum - r.MFLS.Mean; diff < -1e-6 || diff > 1e-6 {
				t.Fatalf("stage means sum to %v, MFLS %v (diff %v)", sum, r.MFLS.Mean, diff)
			}
		})
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
		NewDriver:       func(clk clock.Clock) systems.Driver { return d },
		Unit:            []BenchmarkName{BenchKeyValueSet, BenchKeyValueGet},
		Clients:         1,
		RateLimit:       100,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
		Repetitions:     1,
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
