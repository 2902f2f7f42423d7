// Package experiments regenerates every table and figure of the paper's
// evaluation section. It maps the paper's real-time parameters (300-second
// send phases, 1-10 second block intervals, rate limiters of 50-1600
// payloads/second) onto a scaled simulation so the full grid runs in
// minutes, and carries the paper's reported numbers as reference values for
// paper-vs-measured reporting in EXPERIMENTS.md.
//
// Scaling model: Options.Scale (default 1/100, the scale the model is
// calibrated at) is systems.Env's Scale, whose helpers carry the scaling
// contract; measured latencies and durations convert back through 1/Scale.
// MTPS is not scale-free: systems.Env lists the unscaled service times that
// move it when Scale does.
//
// Every run is a Scenario executed by Run, and every driver is built by its
// system's one constructor, from a systems.Env and the cell's Params,
// through the table behind NewDriver. Beyond the paper's grid, a
// scenario's Faults axis subjects every system to scripted fault schedules
// (node crashes, partitions, degraded links) and reports windowed
// availability and post-heal recovery time. The paper benchmarks healthy
// 4-node networks only, so these scenarios have no paper-vs-measured
// reference rows.
package experiments

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/bitshares"
	"github.com/coconut-bench/coconut/internal/systems/corda"
	"github.com/coconut-bench/coconut/internal/systems/diem"
	"github.com/coconut-bench/coconut/internal/systems/fabric"
	"github.com/coconut-bench/coconut/internal/systems/quorum"
	"github.com/coconut-bench/coconut/internal/systems/sawtooth"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Options control an experiment run.
type Options struct {
	// Scale shrinks paper durations; default 0.01 (1s → 10ms).
	Scale float64
	// SendSeconds is the paper-time sending window; default 300.
	SendSeconds float64
	// GraceSeconds is the paper-time listen run-on; default 30.
	GraceSeconds float64
	// Repetitions is r in the paper's formulas; default 1 for benches, 3
	// for the sweep binary.
	Repetitions int
	// Netem applies the paper's emulated latency (normal, mu 12ms, sigma
	// 2ms, §5.8.1), scaled like every other duration.
	Netem bool
	// Nodes overrides the network size (scalability, §5.8.2); 0 = paper
	// default of 4.
	Nodes int
	// Arrival names the client arrival schedule ("uniform", "poisson",
	// "burst[:N]"); empty means the paper's uniform pacing.
	Arrival string
	// Seed drives deterministic randomness.
	Seed int64
	// Time names the run's clock, and there is one: every run executes on
	// the auto-advancing virtual clock, which makes every cell CPU-bound
	// and bit-deterministic at a fixed seed. "" and "virtual" both name it;
	// Validate rejects anything else, the removed "real" among it.
	Time string
	// Progress, when set, streams one event per scenario cell start and
	// completion from the engine (Run). It replaces the io.Writer
	// side-channels the pre-scenario runners threaded through every call.
	Progress func(Progress) `json:"-"`
	// Trace, when set, collects sampled per-transaction spans across every
	// cell the run executes: client-side pipeline stages, network hops,
	// consensus rounds, and WAL appends/fsyncs all land in the one tracer,
	// exportable as Chrome trace-event JSON (trace.WriteJSON). Nil runs
	// the untraced hot path.
	Trace *trace.Tracer `json:"-"`

	// walOpts, when set, runs every node's commit plane through a
	// write-ahead log with these options (latencies pre-scaled). Only
	// resolveWAL sets it, from the scenario's WAL axis; nil runs the no-WAL
	// hot path.
	walOpts *wal.Options
	// meter, when attached by the engine, collects every clock the run
	// constructs so the cell's consumed simulation time can be summed.
	meter *clockMeter
}

// newClockFn returns the per-repetition clock factory: a fresh AutoVirtual
// each time, because a repetition must never inherit another repetition's
// timer state.
func (o Options) newClockFn() func() *clock.AutoVirtual {
	m := o.meter
	return func() *clock.AutoVirtual {
		c := clock.NewAutoVirtual()
		if m != nil {
			m.add(c)
		}
		return c
	}
}

// clockMeter accumulates the virtual clocks a cell constructs; summing over
// them yields the cell's simulated time and what its scheduler did.
type clockMeter struct {
	clks []*clock.AutoVirtual
}

func (m *clockMeter) add(c *clock.AutoVirtual) { m.clks = append(m.clks, c) }

// fill sums into t the simulated seconds every recorded clock has advanced
// past the simulation epoch and its kernel counters.
func (m *clockMeter) fill(t *CellTiming) {
	for _, c := range m.clks {
		t.SimSeconds += c.Now().Sub(clock.SimEpoch).Seconds()
		ks := c.KernelStats()
		t.Handoffs += ks.Handoffs
		t.Events += ks.Events
		t.TimerFires += ks.TimerFires
	}
}

// arrivalSchedule resolves the named schedule; an unknown name is an error
// so an experiment never silently runs under a different arrival process
// than its results claim.
func (o Options) arrivalSchedule() (coconut.ArrivalSchedule, error) {
	return coconut.ArrivalByName(o.Arrival)
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 0.01
	}
	if o.SendSeconds <= 0 {
		o.SendSeconds = 300
	}
	if o.GraceSeconds <= 0 {
		o.GraceSeconds = 30
	}
	if o.Repetitions <= 0 {
		o.Repetitions = 1
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
}

// paperDur converts paper-time seconds into scaled simulation time.
func (o Options) paperDur(seconds float64) time.Duration {
	return systems.Env{Scale: o.Scale}.Paper(seconds)
}

// PaperSeconds converts a measured simulation duration back to paper time.
func (o Options) PaperSeconds(simSeconds float64) float64 {
	if o.Scale == 0 {
		return simSeconds
	}
	return simSeconds / o.Scale
}

// latency returns the link-latency model for the run.
func (o Options) latency() network.LatencyModel {
	if !o.Netem {
		return network.ZeroLatency{}
	}
	return network.NewNormalLatency(
		time.Duration(12*o.Scale*float64(time.Millisecond)), // paper mu = 12ms, scaled
		time.Duration(2*o.Scale*float64(time.Millisecond)),  // paper sigma = 2ms, scaled
		o.Seed+7,
	)
}

// Params is the paper's parameter point for one cell (see systems.Params).
type Params = systems.Params

// drivers is the constructor table: the one way each system is built.
var drivers = map[string]func(systems.Env, Params) systems.Driver{
	systems.NameCordaOS:   func(e systems.Env, p Params) systems.Driver { return corda.NewOS(e, p) },
	systems.NameCordaEnt:  func(e systems.Env, p Params) systems.Driver { return corda.NewEnterprise(e, p) },
	systems.NameBitShares: func(e systems.Env, p Params) systems.Driver { return bitshares.New(e, p) },
	systems.NameFabric:    func(e systems.Env, p Params) systems.Driver { return fabric.New(e, p) },
	systems.NameQuorum:    func(e systems.Env, p Params) systems.Driver { return quorum.New(e, p) },
	systems.NameSawtooth:  func(e systems.Env, p Params) systems.Driver { return sawtooth.New(e, p) },
	systems.NameDiem:      func(e systems.Env, p Params) systems.Driver { return diem.New(e, p) },
}

// NewDriver builds system on env at the paper's parameters p.
func NewDriver(system string, env systems.Env, p Params) (systems.Driver, error) {
	newDriver, ok := drivers[system]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown system %q", system)
	}
	return newDriver(env, p), nil
}

// NewDriverFunc returns a constructor that builds one system through
// NewDriver under the given parameters and options. It takes the time
// source the driver should live on — the runner hands it each repetition's
// clock, so no two repetitions (and no two concurrently running cells)
// share timer state — and gives each driver a fresh latency model, so none
// shares its draws either. An unknown system is an error here, before any
// repetition runs.
func NewDriverFunc(system string, p Params, o Options) (func(clk *clock.AutoVirtual) systems.Driver, error) {
	if _, ok := drivers[system]; !ok {
		return nil, fmt.Errorf("experiments: unknown system %q", system)
	}
	o.fill()
	return func(clk *clock.AutoVirtual) systems.Driver {
		// Only an unknown system fails, and that was checked above.
		d, _ := NewDriver(system, systems.Env{Nodes: o.Nodes, Scale: o.Scale, Latency: o.latency(), Clock: clk,
			WAL: o.walOpts, Trace: o.Trace, Seed: o.Seed}, p)
		return d
	}, nil
}
