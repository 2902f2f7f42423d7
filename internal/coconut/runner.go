package coconut

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/workload"
)

// RunConfig describes one benchmark unit execution: a fresh system is
// provisioned per repetition, the unit's benchmarks run back to back on it,
// and clients are re-provisioned per benchmark (§4.1).
type RunConfig struct {
	// SystemName labels the result rows.
	SystemName string
	// NewDriver provisions a fresh system (called once per repetition) on
	// the given time source — the repetition's clock, so virtual repetitions
	// never share timer state.
	NewDriver func(clk *clock.AutoVirtual) systems.Driver
	// Unit lists the benchmarks to run in sequence on the same system.
	Unit []BenchmarkName
	// Workload, when set, replaces the paper benchmark generators with the
	// contention workload plane: every client thread draws operations from
	// the spec's key distribution and mix, the spec's setup operations are
	// preloaded into the system's world state (Driver.Preload), and the
	// single measured phase is labelled with the spec name. Unit is ignored.
	Workload *workload.Spec
	// Clients is the number of COCONUT client applications (paper: 4, one
	// per server).
	Clients int
	// RateLimit is payloads/second per client (the paper's RL); it is
	// required.
	RateLimit int
	// Arrival shapes each client's inter-send gaps at the configured rate;
	// nil means the paper's uniform pacing. Poisson and burst schedules
	// model open-loop and flash-crowd traffic at the same mean rate.
	Arrival ArrivalSchedule
	// ArrivalSeed makes randomized schedules deterministic; each client and
	// repetition derives a distinct stream from it.
	ArrivalSeed int64
	// WorkloadThreads per client (paper: 16).
	WorkloadThreads int
	// OpsPerTx packs several operations into one transaction (BitShares:
	// 1, 50, 100). Default 1.
	OpsPerTx int
	// BatchSize groups transactions into an atomic batch (Sawtooth: 1, 50,
	// 100). Default 1. Above 1 the driver must implement BatchSubmitter.
	BatchSize int
	// SendDuration is each phase's transaction sending window (paper:
	// 300s); ListenGrace is the extra listening window for late
	// confirmations (paper: 30s). Scaled-down values regenerate the paper's
	// shapes quickly.
	SendDuration time.Duration
	ListenGrace  time.Duration
	// Repetitions is r in the paper's formulas (paper: 3).
	Repetitions int
	// Faults, when set, is the chaos schedule injected during every
	// benchmark phase; event offsets are relative to load start. The
	// injector restores full health at phase end, so unit members stay
	// independent. A set schedule, even an empty one, also turns on the
	// windowed throughput/latency timeline (SendDuration/20 per window).
	Faults *faults.Schedule
	// Params echoes configuration knobs into the result rows.
	Params map[string]string
	// Trace, when set, records sampled per-transaction spans (client-side
	// pipeline stages; drivers built with the same tracer add network hops,
	// consensus rounds, and WAL appends). Nil disables tracing with zero
	// overhead on the hot path.
	Trace *trace.Tracer
	// NewClock constructs each repetition's time source, a fresh
	// AutoVirtual; it is required. A clock's scheduler state must not span
	// re-provisioned systems, so every repetition gets its own.
	NewClock func() *clock.AutoVirtual
}

func (c *RunConfig) fill() {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Arrival == nil {
		c.Arrival = UniformArrival{}
	}
	if c.WorkloadThreads <= 0 {
		c.WorkloadThreads = 16
	}
	if c.OpsPerTx <= 0 {
		c.OpsPerTx = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	if c.Workload != nil {
		// The contention plane runs one phase, labelled by the spec.
		c.Unit = []BenchmarkName{BenchmarkName(c.Workload.Name())}
	}
	if len(c.Unit) == 0 {
		c.Unit = []BenchmarkName{BenchDoNothing}
	}
}

// sendInterval is a client's mean gap between sends: each send, one
// transaction or batch, accounts for OpsPerTx*BatchSize payloads against
// the rate limit.
func (c *RunConfig) sendInterval() time.Duration {
	payloadsPerSend := c.OpsPerTx * c.BatchSize
	interval := time.Duration(float64(time.Second) * float64(payloadsPerSend) / float64(c.RateLimit))
	if interval <= 0 {
		interval = time.Microsecond
	}
	return interval
}

// phaseTxs estimates how many transactions a phase's clients send, to size
// its in-flight table: one send per interval of the send window and one at
// its start, per client. It is capped at 2^20 records (16 MiB); a table
// that outgrows its reserve grows as it fills.
func (c *RunConfig) phaseTxs() int {
	const maxReserve = 1 << 20
	sends := min(max(int(c.SendDuration/c.sendInterval()), 0)+1, maxReserve)
	return min(c.Clients*sends*c.BatchSize, maxReserve)
}

// Run executes the configured benchmark unit and returns one aggregated
// Result per unit member, in unit order.
func Run(cfg RunConfig) ([]Result, error) {
	cfg.fill()
	if cfg.NewDriver == nil {
		return nil, fmt.Errorf("coconut: RunConfig.NewDriver is required")
	}
	if cfg.NewClock == nil {
		return nil, fmt.Errorf("coconut: RunConfig.NewClock is required")
	}
	if cfg.RateLimit <= 0 {
		return nil, fmt.Errorf("coconut: RunConfig.RateLimit must be positive, got %d", cfg.RateLimit)
	}

	perBench := make(map[BenchmarkName][]RepetitionResult, len(cfg.Unit))
	for rep := 0; rep < cfg.Repetitions; rep++ {
		repResults, err := runRepetition(&cfg, rep)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		for b, r := range repResults {
			perBench[b] = append(perBench[b], r)
		}
	}

	results := make([]Result, 0, len(cfg.Unit))
	for _, b := range cfg.Unit {
		results = append(results, Aggregate(cfg.SystemName, string(b), cfg.Params, perBench[b]))
	}
	return results, nil
}

// runRepetition provisions one fresh system on a fresh clock and runs every
// unit member, quiescing between members. Each member's result is complete
// when its phase ends, so the driver stops right after the last one. The
// repetition numbers its transactions densely from 1 across its members
// (Transaction.Num); 0 is left for unnumbered.
func runRepetition(cfg *RunConfig, rep int) (map[BenchmarkName]RepetitionResult, error) {
	clk := cfg.NewClock()
	// The runner's waits and quiesce sleeps run the clock: its sleeps tie
	// under this name.
	h := clock.Register(clk, "coconut-runner")
	defer h.Close()
	driver := cfg.NewDriver(clk)
	if _, ok := driver.(BatchSubmitter); cfg.BatchSize > 1 && !ok {
		return nil, fmt.Errorf("coconut: BatchSize %d needs a driver that submits batches; %T does not", cfg.BatchSize, driver)
	}
	if cfg.Faults != nil {
		runLen := cfg.SendDuration + cfg.ListenGrace
		if err := cfg.Faults.Validate(runLen, driver.NodeCount()); err != nil {
			return nil, err
		}
	}
	if err := driver.Start(); err != nil {
		return nil, fmt.Errorf("start driver: %w", err)
	}
	stopped := false
	stopDriver := func() {
		if !stopped {
			stopped = true
			driver.Stop()
		}
	}
	defer stopDriver()
	if cfg.Workload != nil {
		if setup := cfg.Workload.SetupOps(); len(setup) > 0 {
			if err := driver.Preload(setup); err != nil {
				return nil, fmt.Errorf("preload workload %q: %w", cfg.Workload.Name(), err)
			}
		}
	}

	out := make(map[BenchmarkName]RepetitionResult, len(cfg.Unit))
	// writtenCounts carries the write phase's per-client per-thread send
	// counts into dependent read phases.
	writtenCounts := make(map[BenchmarkName][][]uint64)
	nextNum := uint64(1)

	for i, bench := range cfg.Unit {
		if i > 0 {
			quiesce(clk, driver)
		}
		var readMax [][]uint64
		if dep := ReadBenchmarkDependsOnWrite(bench); dep != "" {
			readMax = writtenCounts[dep]
			if bench == BenchSendPayment {
				// SendPayment(n, n+1) needs account n+1 to exist.
				readMax = decrementCounts(readMax)
			}
		}

		rr, sent := runBenchmark(cfg, clk, driver, bench, rep, readMax, &nextNum)
		writtenCounts[bench] = sent
		out[bench] = rr
	}
	// Teardown leak check: after the driver stops, every timer and event
	// deadline armed during the repetition must have fired or been stopped —
	// otherwise long soaks accumulate dead waiters in the virtual heap.
	stopDriver()
	if n := clk.PendingWaiters(); n != 0 {
		return nil, fmt.Errorf("coconut: %d timer/event waiter(s) leaked at repetition teardown", n)
	}
	return out, nil
}

// quiesceTimeout caps the inter-benchmark wait for systems whose queues
// drain slowly (the paper's clients terminate 90s after listening stops,
// leaving queues time to empty).
const quiesceTimeout = 8 * time.Second

// quiesce waits for slow admission queues to empty between unit members,
// bounded by quiesceTimeout. Systems without backlogs return immediately.
func quiesce(clk *clock.AutoVirtual, driver systems.Driver) {
	deadline := clk.Now().Add(quiesceTimeout)
	for clk.Now().Before(deadline) {
		if driver.Drained() {
			return
		}
		clk.Sleep(20 * time.Millisecond)
	}
}

// runBenchmark provisions fresh clients and executes one benchmark. The
// clients number their transactions in one in-flight table for the phase,
// from the repetition's counter nextNum on, which the phase advances past
// its last number, and stream into one tally for the phase, which yields
// the repetition's metrics.
func runBenchmark(cfg *RunConfig, clk *clock.AutoVirtual, driver systems.Driver, bench BenchmarkName, rep int, readMax [][]uint64, nextNum *uint64) (RepetitionResult, [][]uint64) {
	// The windowed measurement plane spans the whole phase (plus one
	// window of slack for late replay bursts at the horizon edge). It is
	// collected only under a fault schedule, so the paper-grid hot path
	// carries zero overhead.
	var timeline *Timeline
	window := cfg.SendDuration / 20
	if cfg.Faults != nil {
		timeline = NewTimeline(clk.Now(), window, cfg.SendDuration+cfg.ListenGrace+window)
	}

	tl := newTally(timeline)
	txs := newInflightTable(*nextNum, cfg.phaseTxs())
	clients := make([]*Client, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		var rm []uint64
		if i < len(readMax) {
			rm = readMax[i]
		}
		clients[i] = newClient(cfg, clk, driver, tl, txs, i, rep, bench, rm, nil)
	}

	// Driver-side conflict counters are cumulative over the driver's
	// lifetime; snapshot around the phase so each unit member reports only
	// its own sheds.
	conflictsBefore := driver.ConflictCounts()

	// WAL counters are likewise cumulative; snapshot them so the repetition
	// reports only its own replay/refetch work.
	walBefore, walEnabled := driver.RecoveryStats()

	// The fault timeline starts with the load; Stop restores full health
	// before quiescence so the next unit member sees a pristine system.
	var injector *faults.Injector
	if cfg.Faults != nil {
		injector = faults.NewInjector(driver, *cfg.Faults, clk)
		injector.Start()
	}

	// The gauge sampler is a clock event snapshotting the driver's
	// queue depths once per timeline window, so the windowed throughput
	// timeline gains a matching queue/resource telemetry series. It runs
	// only when a timeline is collected — the paper-grid hot path stays
	// untouched.
	var gaugeSamples GaugeSeries
	var sampler *clock.Event
	if timeline != nil && window > 0 {
		sampler = clock.NewEvent(clk, "gauge-sampler", func() {
			gaugeSamples = append(gaugeSamples, sampleGauges(driver.QueueSnapshot()))
		})
		sampler.Every(window)
	}

	drive(clk, cfg, clients)
	*nextNum += uint64(len(txs.recs))
	if injector != nil {
		injector.Stop()
	}
	if sampler != nil {
		sampler.Stop()
	}

	written := make([][]uint64, len(clients))
	for i, cl := range clients {
		written[i] = cl.ReceivedCounts()
	}
	rr := tl.result()
	for code, after := range driver.ConflictCounts() {
		if delta := after - conflictsBefore[code]; delta > 0 {
			if rr.Conflicts == nil {
				rr.Conflicts = make(map[string]int)
			}
			rr.Conflicts[code] += int(delta)
		}
	}
	if timeline != nil {
		var faultAt, healAt time.Duration
		bounded := false
		if cfg.Faults != nil {
			faultAt, healAt, bounded = cfg.Faults.Bounds()
		}
		fm := ComputeFaultMetrics(timeline, faultAt, healAt, bounded)
		rr.Availability = fm.Availability
		rr.Recovered = fm.Recovered
		rr.RecoverySec = fm.RecoverySec
		rr.GoodputRecovered = fm.GoodputRecovered
		rr.GoodputRecoverySec = fm.GoodputRecoverySec
		rr.Windows = fm.Windows
		rr.Overflow = timeline.Overflow()
		if len(gaugeSamples) > 0 && len(rr.Windows) > 0 {
			// Align the gauge series to the trimmed window timeline: drop
			// samples past the last non-empty window, pad if the sampler was
			// stopped a tick early.
			series := gaugeSamples
			if len(series) > len(rr.Windows) {
				series = series[:len(rr.Windows)]
			}
			for len(series) < len(rr.Windows) {
				series = append(series, GaugeSample{})
			}
			rr.Series = series
		}
	}
	if walEnabled {
		after, _ := driver.RecoveryStats()
		delta := after.Sub(walBefore)
		rr.WALEnabled = true
		rr.ReplayedRecords = int(delta.ReplayedRecords)
		rr.ReplaySec = delta.ReplaySec
		rr.RefetchedRecords = int(delta.RefetchedRecords)
		rr.RefetchSec = delta.RefetchSec
		// The log counters are reported as they stand at the end of the
		// phase, not as a delta: cumulative appends since provisioning.
		rr.LogRecords = int(after.LogRecords)
		rr.LogBytes = int(after.LogBytes)
	}
	return rr, written
}

// drive runs one phase's clients from the caller: load starts
// uniformly (§4.3), every client sending at this instant, the send window
// and then the listening grace pass, and the clients detach.
func drive(clk *clock.AutoVirtual, cfg *RunConfig, clients []*Client) {
	sendEnd := clk.Now().Add(cfg.SendDuration)
	for _, c := range clients {
		c.start(sendEnd)
	}
	clk.Sleep(cfg.SendDuration)
	clk.Sleep(cfg.ListenGrace)
	for _, c := range clients {
		c.detach()
	}
}

func decrementCounts(in [][]uint64) [][]uint64 {
	out := make([][]uint64, len(in))
	for i, row := range in {
		out[i] = make([]uint64, len(row))
		for j, v := range row {
			if v > 0 {
				out[i][j] = v - 1
			}
		}
	}
	return out
}
