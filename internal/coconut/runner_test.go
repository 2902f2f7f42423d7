package coconut

import (
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

// leakyDriver arms a ticker when it starts and never stops it.
type leakyDriver struct {
	*fakeDriver
	clk *clock.AutoVirtual
}

func (d leakyDriver) Start() error {
	d.clk.NewTicker(time.Second)
	return nil
}

// TestRunReportsLeakedWaiters: every repetition ends with the teardown leak
// check, so a timer a driver leaves armed fails the run.
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
	if err == nil || !strings.Contains(err.Error(), "1 timer/ticker waiter(s) leaked") {
		t.Fatalf("err = %v, want the leaked ticker reported", err)
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
