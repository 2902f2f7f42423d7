// Package experiments regenerates every table and figure of the paper's
// evaluation section. It maps the paper's real-time parameters (300-second
// send phases, 1-10 second block intervals, rate limiters of 50-1600
// payloads/second) onto a scaled simulation so the full grid runs in
// minutes, and carries the paper's reported numbers as reference values for
// paper-vs-measured reporting in EXPERIMENTS.md.
//
// Scaling model: all durations shrink by Scale (default 1/100), block-size
// parameters shrink by the same factor, and rate limiters stay unscaled.
// This preserves the three ratios the paper's shapes depend on — offered
// load vs. capacity, block capacity vs. load per interval, and finalization
// latency vs. block interval — while MTPS remains directly comparable
// (transactions per second is scale-free) and latencies/durations convert
// back through 1/Scale.
//
// Every run is a Scenario executed by Run, and NewDriverFunc is the one
// place a driver is configured. Beyond the paper's grid, a scenario's
// Faults axis subjects every system to scripted fault schedules (node
// crashes, partitions, degraded links) and reports windowed availability
// and post-heal recovery time. The paper benchmarks healthy 4-node
// networks only, so these scenarios have no paper-vs-measured reference
// rows.
package experiments

import (
	"fmt"
	"sync"
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
	// Time selects the run's clock: "" or "real" executes on the wall
	// clock, "virtual" on the auto-advancing simulated clock, which makes
	// every cell CPU-bound and bit-deterministic at a fixed seed.
	Time string
	// WAL, when set, runs every node's commit plane through a write-ahead
	// log with these options (latencies pre-scaled). The engine fills it
	// from the scenario's WAL axis; nil runs the no-WAL hot path.
	WAL *wal.Options
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

	// meter, when attached by the engine, collects every clock the run
	// constructs so the cell's consumed simulation time can be summed.
	meter *clockMeter
}

// ValidTime reports whether a time-axis value is recognised.
func ValidTime(t string) bool { return t == "" || t == "real" || t == "virtual" }

// virtualTime reports whether the run executes on the auto-advancing clock.
func (o Options) virtualTime() bool { return o.Time == "virtual" }

// newClockFn returns the per-repetition clock factory: a fresh wall clock
// in real mode, a fresh AutoVirtual in virtual mode. Fresh-per-repetition
// matters even on the wall clock — a repetition must never inherit another
// repetition's timer state.
func (o Options) newClockFn() func() clock.Clock {
	if !o.virtualTime() {
		return clock.New
	}
	m := o.meter
	return func() clock.Clock {
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
	mu   sync.Mutex
	clks []*clock.AutoVirtual
}

func (m *clockMeter) add(c *clock.AutoVirtual) {
	m.mu.Lock()
	m.clks = append(m.clks, c)
	m.mu.Unlock()
}

// fill sums into t the simulated seconds every recorded clock has advanced
// past the simulation epoch and its kernel counters.
func (m *clockMeter) fill(t *CellTiming) {
	m.mu.Lock()
	defer m.mu.Unlock()
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
	return time.Duration(seconds * o.Scale * float64(time.Second))
}

// scaleCount shrinks block-size-like parameters, flooring at 1.
func (o Options) scaleCount(v int) int {
	s := int(float64(v) * o.Scale)
	if s < 1 {
		return 1
	}
	return s
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

// Params is the per-cell parameter set, mirroring the paper's labels:
// RL (total rate limiter across the four clients), MM (Fabric
// MaxMessageCount), BS (Diem max_block_size), BI (BitShares block_interval
// seconds), BP (Quorum istanbul.blockperiod seconds), PD (Sawtooth
// block_publishing_delay seconds), Actions (operations per transaction or
// transactions per batch).
type Params struct {
	RL      int `json:"rl,omitempty"`
	MM      int `json:"mm,omitempty"`
	BS      int `json:"bs,omitempty"`
	BI      int `json:"bi,omitempty"`
	BP      int `json:"bp,omitempty"`
	PD      int `json:"pd,omitempty"`
	Actions int `json:"actions,omitempty"`
}

// Labels renders the parameter set for result rows.
func (p Params) Labels() map[string]string {
	out := map[string]string{"RL": itoa(p.RL)}
	if p.MM > 0 {
		out["MM"] = itoa(p.MM)
	}
	if p.BS > 0 {
		out["BS"] = itoa(p.BS)
	}
	if p.BI > 0 {
		out["BI"] = itoa(p.BI) + "s"
	}
	if p.BP > 0 {
		out["BP"] = itoa(p.BP) + "s"
	}
	if p.PD > 0 {
		out["PD"] = itoa(p.PD) + "s"
	}
	if p.Actions > 0 {
		out["Actions"] = itoa(p.Actions)
	}
	return out
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// NewDriverFunc builds a fresh driver for one system under the given
// parameters and options. The returned constructor takes the time source
// the driver should live on — the runner hands it each repetition's clock,
// so no two repetitions (and no two concurrently running cells) share timer
// state.
func NewDriverFunc(system string, p Params, o Options) (func(clk clock.Clock) systems.Driver, error) {
	o.fill()
	switch system {
	case systems.NameFabric:
		mm := p.MM
		if mm == 0 {
			mm = 500
		}
		return func(clk clock.Clock) systems.Driver {
			return fabric.New(fabric.Config{
				Peers:            o.Nodes,
				Orderers:         3,
				MaxMessageCount:  o.scaleCount(mm),
				BatchTimeout:     o.paperDur(2),
				EventLossAtPeers: 16, // paper §5.8.2: clients get no confirmations at >= 16 peers
				Latency:          o.latency(),
				Clock:            clk,
				WAL:              o.WAL,
				Trace:            o.Trace,
			})
		}, nil

	case systems.NameQuorum:
		bp := p.BP
		if bp == 0 {
			bp = 1
		}
		// The livelock latches when the per-period backlog crosses the
		// boundary the paper observed (blockperiod <= 2s with a high rate
		// limiter, calibrated at RL x BP ~ 3200 payload-seconds). The
		// backlog at production time is RL x BP x Scale, so the threshold
		// scales identically to stay a fixed fraction of that boundary.
		stallLimit := int(2560 * o.Scale)
		if stallLimit < 2 {
			stallLimit = 2
		}
		// Per-block capacity models Quorum's measured execution ceiling of
		// ~820 tx/s (the paper's DoNothing best is 773.60): the gas-limit
		// equivalent is capacity x block period, scaled with the clock.
		maxBlockTxs := int(820 * float64(bp) * o.Scale)
		if maxBlockTxs < 1 {
			maxBlockTxs = 1
		}
		return func(clk clock.Clock) systems.Driver {
			return quorum.New(quorum.Config{
				Validators:       o.Nodes,
				BlockPeriod:      o.paperDur(float64(bp)),
				MaxBlockTxs:      maxBlockTxs,
				StallBlockPeriod: o.paperDur(2), // the paper's "blockperiod <= 2" trigger
				StallQueueLimit:  stallLimit,
				Latency:          o.latency(),
				Clock:            clk,
				WAL:              o.WAL,
				Trace:            o.Trace,
			})
		}, nil

	case systems.NameSawtooth:
		// Sawtooth's measured capacity is dominated by batch validation,
		// not by block_publishing_delay — the paper finds PD "does not
		// reveal any significant difference" (§5.6). Model the drain as one
		// batch per block with a real-time per-batch cost of 25ms fixed +
		// 10ms per member transaction, which reproduces both the ~80-100
		// payloads/s ceiling at batch=100 and the ~26-35 at batch=1.
		batch := p.Actions
		if batch <= 0 {
			batch = 1
		}
		pd := 25*time.Millisecond + time.Duration(batch)*10*time.Millisecond
		if scaled := o.paperDur(float64(p.PD)); scaled > pd {
			pd = scaled
		}
		return func(clk clock.Clock) systems.Driver {
			return sawtooth.New(sawtooth.Config{
				Validators:               o.Nodes,
				BlockPublishingDelay:     pd,
				QueueDepth:               8, // the paper's rejection-heavy admission queue
				MaxBlockBatches:          1,
				PendingStallAtValidators: 16, // paper §5.8.2: txs stay pending at >= 16 validators
				Latency:                  o.latency(),
				Clock:                    clk,
				WAL:                      o.WAL,
				Trace:                    o.Trace,
			})
		}, nil

	case systems.NameDiem:
		// Diem is likewise validation-limited: rounds run at a real-time
		// cadence and the validators spend most of the benchmark in the
		// "spiking" stalls the paper cites from Balster (§5.7).
		bs := p.BS
		if bs == 0 {
			bs = 3000
		}
		maxBlock := o.scaleCount(bs)
		if maxBlock < 6 {
			maxBlock = 6
		}
		return func(clk clock.Clock) systems.Driver {
			return diem.New(diem.Config{
				Validators:    o.Nodes,
				MaxBlockSize:  maxBlock,
				RoundInterval: 150 * time.Millisecond,
				MempoolDepth:  48,
				SpikePeriod:   time.Second,
				SpikeDuration: 650 * time.Millisecond,
				Latency:       o.latency(),
				Clock:         clk,
				WAL:           o.WAL,
				Trace:         o.Trace,
			})
		}, nil

	case systems.NameBitShares:
		bi := p.BI
		if bi == 0 {
			bi = 5
		}
		// The exclusion window holds one paper block interval's worth of
		// transactions (RL payloads/s x BI seconds / ops-per-tx), so the
		// conflict-collision ratio survives the time scaling.
		actions := p.Actions
		if actions <= 0 {
			actions = 1
		}
		window := p.RL * bi / actions
		if window < 2 {
			window = 2
		}
		return func(clk clock.Clock) systems.Driver {
			return bitshares.New(bitshares.Config{
				Nodes:             o.Nodes,
				BlockInterval:     o.paperDur(float64(bi)),
				ConflictWindowTxs: window,
				Latency:           o.latency(),
				Clock:             clk,
				Seed:              o.Seed,
				WAL:               o.WAL,
				Trace:             o.Trace,
			})
		}, nil

	case systems.NameCordaOS:
		// Corda's throughput is flow-time-limited, not block-limited, so
		// its processing costs stay in real time rather than scaling with
		// the clock: serial signing of 3 counterparties at 180ms each
		// yields the paper's ~7 MTPS DoNothing capacity on 4 nodes.
		return func(clk clock.Clock) systems.Driver {
			return corda.NewOS(corda.Config{
				Nodes:          o.Nodes,
				SignProcessing: 180 * time.Millisecond,
				ScanCost:       20 * time.Millisecond,
				ReadScanBudget: 8, // full-vault reads are hopeless (§5.1)
				FlowTimeout:    10 * time.Second,
				Latency:        o.latency(),
				Clock:          clk,
				WAL:            o.WAL,
				Trace:          o.Trace,
			})
		}, nil

	case systems.NameCordaEnt:
		// Parallel signing (one 500ms hop) with 8 flow workers per node
		// yields the paper's ~64 MTPS DoNothing capacity on 4 nodes.
		return func(clk clock.Clock) systems.Driver {
			return corda.NewEnterprise(corda.Config{
				Nodes:          o.Nodes,
				SignProcessing: 500 * time.Millisecond,
				ScanCost:       30 * time.Millisecond,
				FlowTimeout:    10 * time.Second,
				Latency:        o.latency(),
				Clock:          clk,
				WAL:            o.WAL,
				Trace:          o.Trace,
			})
		}, nil

	default:
		return nil, fmt.Errorf("experiments: unknown system %q", system)
	}
}
