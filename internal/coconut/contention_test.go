package coconut

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/workload"
)

// A workload whose setup the driver fails to preload must fail the run,
// naming the workload, rather than silently measuring key-not-found noise.
func TestContentionPreloadFailureFailsRun(t *testing.T) {
	spec := workload.Spec{Dist: workload.Zipfian{}, Mix: workload.SmallBank{}, Keys: 8, Seed: 1}
	_, err := Run(RunConfig{
		SystemName:      "failing-preload",
		NewDriver:       func(clk *clock.AutoVirtual) systems.Driver { return failingPreloadDriver{newFakeDriver()} },
		Workload:        &spec,
		Clients:         1,
		RateLimit:       10,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     10 * time.Millisecond,
		Repetitions:     1,
		NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
	})
	if err == nil || !strings.Contains(err.Error(), spec.Name()) || !errors.Is(err, errPreloadRefused) {
		t.Fatalf("err = %v, want the preload failure naming workload %q", err, spec.Name())
	}
}

var errPreloadRefused = errors.New("preload refused")

// failingPreloadDriver is a fake whose Preload always fails.
type failingPreloadDriver struct{ *fakeDriver }

func (failingPreloadDriver) Preload([]chain.Operation) error { return errPreloadRefused }
