package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/wal"
	"github.com/coconut-bench/coconut/internal/workload"
)

// Progress is one engine progress event. The engine emits a start event
// (Result nil) before a cell runs and a completion event (Result set) when
// it finishes; Index/Total locate the cell in the scenario's expansion.
type Progress struct {
	// Scenario is the running scenario's name.
	Scenario string
	// Cell is the human-readable cell label, e.g. "Fabric/DoNothing" or
	// "Quorum/smallbank/zipfian:1.10/keys=64".
	Cell string
	// System is the cell's system.
	System string
	// Index is the cell's 1-based position; Total the scenario's cell count.
	Index, Total int
	// Result is the cell's aggregated result; nil on the start event.
	Result *coconut.Result
}

// PaperRefValues carries the paper's reference numbers for one result row.
type PaperRefValues struct {
	// MTPS/MFLS are the paper-reported throughput and mean latency (MFLS
	// in paper seconds). A zero MTPS marks a cell the paper reports as
	// failed, except on a failuresOnly reference.
	MTPS float64 `json:"mtps"`
	MFLS float64 `json:"mfls,omitempty"`
	// Received/Expected are the paper's NoT accounting (table references).
	Received float64 `json:"received,omitempty"`
	Expected float64 `json:"expected,omitempty"`
	// Failed marks scalability cells the paper reports as failed (§5.8.2).
	Failed bool `json:"failed,omitempty"`

	// failuresOnly marks a reference that records only whether the paper's
	// cell failed (Figure 5), so its zero MTPS is no value.
	failuresOnly bool
	// transcribed marks a paper failure the model reproduces only through a
	// threshold copied from the result (see figure5Failures).
	transcribed bool
}

// OutcomeRow is one cell's measured result with its axis labels and
// optional paper reference.
type OutcomeRow struct {
	System string `json:"system"`
	// Benchmark is the paper benchmark, or the workload spec name for
	// contention cells.
	Benchmark string `json:"benchmark"`
	// Workload is the workload spec name when the contention axis is
	// active ("" for paper-benchmark cells).
	Workload string `json:"workload,omitempty"`
	// Nodes is the network size the cell ran at.
	Nodes int `json:"nodes"`
	// Faults labels the fault axis (preset name, "inline", or "wal-crash"
	// for schedules synthesized from WAL crash points); "" when healthy.
	Faults string `json:"faults,omitempty"`
	// WAL labels the durability axis (fsync policy, snapshot interval,
	// crash point); "" when the cell ran without a write-ahead log.
	WAL string `json:"wal,omitempty"`
	// Params is the cell's parameter point.
	Params Params `json:"params"`
	// Paper carries the reference values when the scenario has a PaperRef.
	Paper *PaperRefValues `json:"paper,omitempty"`
	// Result is the aggregated measurement.
	Result coconut.Result `json:"result"`
}

// Outcome is a scenario's full measured result: the spec it ran and one
// row per cell, in deterministic expansion order. Virtual-time runs also
// carry one CellTiming per cell.
type Outcome struct {
	Scenario Scenario     `json:"scenario"`
	Rows     []OutcomeRow `json:"rows"`
	// Timings reports per-cell simulated-versus-wall time when the
	// scenario ran under the virtual clock; empty on real-time runs.
	// The entries are wall-clock measurements, so they vary run to run
	// even when the Rows are bit-identical.
	Timings []CellTiming `json:"timings,omitempty"`
}

// CellTiming is one virtual-time cell's speed accounting: how many
// simulated seconds elapsed across the cell's clocks per wall-clock
// second spent computing them.
type CellTiming struct {
	Cell        string  `json:"cell"`
	SimSeconds  float64 `json:"simSeconds"`
	WallSeconds float64 `json:"wallSeconds"`
	// Speedup is SimSeconds/WallSeconds: how much faster than real time
	// the cell ran.
	Speedup float64 `json:"speedup"`
	// Handoffs, Events and TimerFires are the clock kernel's counters
	// (clock.KernelStats) summed over the cell's clocks: execution-token
	// grants to a parked goroutine, event functions run inline, deadlines
	// fired. Unlike the wall-clock fields they repeat exactly at a fixed
	// seed.
	Handoffs   int64 `json:"handoffs"`
	Events     int64 `json:"events"`
	TimerFires int64 `json:"timerFires"`
}

// cellSpec is one fully resolved unit of work.
type cellSpec struct {
	system string
	bench  coconut.BenchmarkName
	wl     *workload.Spec
	params Params
	nodes  int
	paper  *PaperRefValues
	wal    *walCell
}

// walCell is one resolved point on the durability axis.
type walCell struct {
	spec          *WALSpec
	snapshotEvery int
	// crashPoint is the crash offset as a fraction of the send window;
	// 0 means the cell runs its WAL healthy.
	crashPoint float64
}

func (c *walCell) label() string {
	if c == nil {
		return ""
	}
	return c.spec.Label(c.snapshotEvery, c.crashPoint)
}

// checkFinite rejects a NaN or infinite run length or scale, which would
// otherwise size every cell as zero or unbounded; a value <= 0 still means
// the default.
func (o Options) checkFinite() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"Scale", o.Scale}, {"SendSeconds", o.SendSeconds}, {"GraceSeconds", o.GraceSeconds}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("experiments: %s is %v, want a finite number (<= 0 for the default)", f.name, f.v)
		}
	}
	return nil
}

// label renders the cell for progress events.
func (c cellSpec) label() string {
	var l string
	if c.wl != nil {
		l = c.system + "/" + c.wl.Name()
	} else {
		l = c.system + "/" + string(c.bench)
		if c.nodes != 0 {
			l += fmt.Sprintf("/nodes=%d", c.nodes)
		}
	}
	if c.wal != nil {
		l += "/" + c.wal.label()
	}
	return l
}

// Run executes a scenario: it validates the spec, expands it into a
// deterministic cell list, runs every cell through the COCONUT runner, and
// returns one Outcome with a row per cell. Options supplies the engine
// scaling (Scale, SendSeconds, GraceSeconds) and the defaults a scenario
// can override (Arrival, Repetitions, Seed, Nodes, Netem); Options.Progress
// streams per-cell events. ctx cancels between cells.
func Run(ctx context.Context, sc Scenario, o Options) (*Outcome, error) {
	if err := o.checkFinite(); err != nil {
		return nil, err
	}
	o.fill()
	if sc.Time != "" {
		o.Time = sc.Time
	}
	if o.virtualTime() {
		// One P for the whole run: the auto-advancing clock runs one goroutine
		// at a time, so a second P only adds cross-thread hand-offs — and lets
		// whatever runs outside the execution token (ROADMAP's defect list
		// names one such path) reach the model, which made two identical runs
		// differ at GOMAXPROCS=8.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cells, err := expandCells(sc, o)
	if err != nil {
		return nil, err
	}

	out := &Outcome{Scenario: sc, Rows: make([]OutcomeRow, 0, len(cells))}
	for i, cell := range cells {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: scenario %q canceled at cell %d/%d: %w", sc.Name, i+1, len(cells), err)
		}
		if o.Progress != nil {
			o.Progress(Progress{Scenario: sc.Name, Cell: cell.label(), System: cell.system, Index: i + 1, Total: len(cells)})
		}
		if o.virtualTime() {
			// A fresh meter per cell so Timings isolate each cell's clocks.
			o.meter = &clockMeter{}
		}
		w0 := clock.Walltime()
		res, err := runCell(cell, sc, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q cell %s: %w", sc.Name, cell.label(), err)
		}
		// Every cell collects its own garbage before the next one starts (and
		// inside its own wall time). Left to the pacer, a cell's few dozen MB
		// of dead ledgers sit under the next cell's allocations until the heap
		// reaches a goal the previous collection set, and whether that goal was
		// set just before or just after a cell's largest burst moved a sweep's
		// peak RSS between 61 and 104 MB from run to run.
		runtime.GC()
		if o.virtualTime() {
			wall := clock.Walltime().Sub(w0).Seconds()
			t := CellTiming{Cell: cell.label(), WallSeconds: wall}
			o.meter.fill(&t)
			if wall > 0 {
				t.Speedup = t.SimSeconds / wall
			}
			out.Timings = append(out.Timings, t)
		}
		row := OutcomeRow{
			System:    cell.system,
			Benchmark: res.Benchmark,
			Nodes:     cell.nodes,
			Faults:    sc.Faults.Label(),
			Params:    cell.params,
			Paper:     cell.paper,
			Result:    res,
		}
		if cell.wl != nil {
			row.Workload = cell.wl.Name()
		}
		if cell.wal != nil {
			row.WAL = cell.wal.label()
			if cell.wal.crashPoint > 0 {
				row.Faults = "wal-crash"
			}
		}
		out.Rows = append(out.Rows, row)
		if o.Progress != nil {
			r := res
			o.Progress(Progress{Scenario: sc.Name, Cell: cell.label(), System: cell.system, Index: i + 1, Total: len(cells), Result: &r})
		}
	}
	return out, nil
}

// expandCells turns a validated scenario into its deterministic cell list.
// Ordering is a pure function of the spec — never of map iteration: paper
// benchmark scenarios expand systems-major (then benchmarks, then parameter
// rows, then node counts, matching the paper's figure layout), and
// contention scenarios expand workload-major (mixes, then skews, then
// systems, matching the sweep's report layout).
func expandCells(sc Scenario, o Options) ([]cellSpec, error) {
	nodes := sc.Nodes
	if len(nodes) == 0 {
		nodes = []int{o.Nodes}
	}
	seed := o.Seed
	if sc.Seed != 0 {
		seed = sc.Seed
	}

	var cells []cellSpec
	if sc.Workload != nil {
		keys := sc.Workload.Keys
		if keys <= 0 {
			keys = ContentionDefaultKeys
		}
		for _, mix := range sc.Workload.mixes() {
			for _, skew := range sc.Workload.skews() {
				spec, err := workload.ParseSpec(mix, skew, keys, seed)
				if err != nil {
					return nil, err
				}
				if !spec.Dist.Shared() {
					// The partitioned control slices the pool across all
					// workload threads; give every stream at least 16
					// accounts so the paired-half reuse distance stays
					// beyond the in-flight pipeline window.
					if min := 16 * scenarioClients * sc.threads(); spec.Keys < min {
						spec.Keys = min
					}
				}
				for _, system := range sc.systems() {
					for _, n := range nodes {
						spec := spec
						cells = append(cells, cellSpec{
							system: system,
							wl:     &spec,
							params: Params{RL: sc.rate()},
							nodes:  n,
						})
					}
				}
			}
		}
		return expandWALAxis(sc, cells), nil
	}

	ref, _ := parsePaperRef(sc.PaperRef) // validated
	for _, system := range sc.systems() {
		for _, bench := range sc.benchmarks() {
			// The parameter points: the Figure 3 winner, a grid, one point,
			// or the scenario rate.
			rows := []Params{{RL: sc.rate()}}
			switch {
			case sc.BestParams:
				best, ok := BestCell(system, bench)
				if !ok {
					return nil, fmt.Errorf("no Figure 3 configuration for %s/%s", system, bench)
				}
				rows = []Params{best.Params}
			case len(sc.ParamGrid) > 0:
				rows = sc.ParamGrid
			case sc.Params != nil:
				rows = []Params{*sc.Params}
			}
			for _, p := range rows {
				for _, n := range nodes {
					cells = append(cells, cellSpec{
						system: system,
						bench:  bench,
						params: p,
						nodes:  n,
						paper:  ref.values(system, bench, p, n),
					})
				}
			}
		}
	}
	return expandWALAxis(sc, cells), nil
}

// expandWALAxis crosses every cell with the scenario's durability axis
// (snapshot intervals x crash points), innermost so the per-system blocks
// of the expansion stay contiguous. Scenarios without a WAL pass through
// untouched.
func expandWALAxis(sc Scenario, cells []cellSpec) []cellSpec {
	ws := sc.WAL
	if ws == nil {
		return cells
	}
	crashPoints := ws.CrashPoints
	if len(crashPoints) == 0 {
		crashPoints = []float64{0} // healthy WAL run
	}
	out := make([]cellSpec, 0, len(cells)*len(ws.snapshotIntervals())*len(crashPoints))
	for _, cell := range cells {
		for _, snap := range ws.snapshotIntervals() {
			for _, cp := range crashPoints {
				cell.wal = &walCell{spec: ws, snapshotEvery: snap, crashPoint: cp}
				out = append(out, cell)
			}
		}
	}
	return out
}

// scenarioClients is the client-application count every scenario cell runs
// with: the paper's four clients, one per server (§4.3).
const scenarioClients = 4

// benchGridThreads is the paper grid's workload-thread count per client.
const benchGridThreads = 8

// runCell executes one resolved cell.
func runCell(cell cellSpec, sc Scenario, o Options) (coconut.Result, error) {
	o.fill()
	o.Nodes = cell.nodes
	o.Netem = o.Netem || sc.Netem
	if sc.Arrival != "" {
		o.Arrival = sc.Arrival
	}
	if sc.Repetitions > 0 {
		o.Repetitions = sc.Repetitions
	}
	if sc.Seed != 0 {
		o.Seed = sc.Seed
	}

	sched, label, err := resolveFaults(sc.Faults, o)
	if err != nil {
		return coconut.Result{}, err
	}
	if cell.wal != nil {
		var walSched *faults.Schedule
		walSched, err = resolveWAL(cell.wal, &o)
		if err != nil {
			return coconut.Result{}, err
		}
		if walSched != nil {
			// Validate rejected CrashPoints+Faults, so the synthesized
			// schedule never collides with a scenario-level one.
			sched, label = walSched, "wal-crash"
		}
	}

	return execCell(cell, o, sc.threads(), sched, label)
}

// resolveFaults turns the scenario's fault axis into a concrete sim-time
// schedule: presets are built against the run's node count and load
// window; inline schedules are paper-time and scale like every other
// duration.
func resolveFaults(f *FaultSpec, o Options) (*faults.Schedule, string, error) {
	if f == nil {
		return nil, "", nil
	}
	if f.Preset != "" {
		sched, err := faults.NewPreset(f.Preset, o.Nodes, o.paperDur(o.SendSeconds))
		if err != nil {
			return nil, "", err
		}
		return &sched, f.Preset, nil
	}
	scaled := faults.Schedule{Events: make([]faults.Event, len(f.Schedule.Events))}
	for i, ev := range f.Schedule.Events {
		ev.At = time.Duration(float64(ev.At) * o.Scale)
		ev.Extra = time.Duration(float64(ev.Extra) * o.Scale)
		scaled.Events[i] = ev
	}
	return &scaled, f.Label(), nil
}

// resolveWAL turns one durability-axis point into concrete wal.Options on
// the engine Options (threaded into every driver's Env by NewDriverFunc)
// plus, when the point carries a crash offset, a synthesized fault
// schedule: crash the last node at the offset, damage its log when the
// spec asks for corruption, restart at the spec's restart point. Durations
// scale like every other paper-time value.
func resolveWAL(wc *walCell, o *Options) (*faults.Schedule, error) {
	ws := wc.spec
	opts := wal.Options{
		Fsync:         ws.Fsync,
		BatchRecords:  ws.BatchRecords,
		SnapshotEvery: wc.snapshotEvery,
		Latency:       wal.DefaultLatency().Scaled(o.Scale),
	}
	if ws.BatchInterval != "" {
		d, err := time.ParseDuration(ws.BatchInterval)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad WAL.BatchInterval %q: %w", ws.BatchInterval, err)
		}
		opts.BatchInterval = time.Duration(float64(d) * o.Scale)
	}
	o.WAL = &opts

	if wc.crashPoint <= 0 {
		return nil, nil
	}
	send := o.SendSeconds
	target := o.Nodes - 1
	evs := []faults.Event{
		{At: o.paperDur(wc.crashPoint * send), Kind: faults.CrashNode, Node: target},
	}
	if ws.Corruption != "" {
		kind := faults.TornWrite
		if ws.Corruption == "corrupt-record" {
			kind = faults.CorruptRecord
		}
		// One paper-second after the crash: inside the outage window, and
		// unambiguously ordered after the crash for Schedule.Validate.
		evs = append(evs, faults.Event{At: o.paperDur(wc.crashPoint*send + 1), Kind: kind, Node: target})
	}
	evs = append(evs, faults.Event{At: o.paperDur(ws.restartPoint() * send), Kind: faults.RestartNode, Node: target})
	return &faults.Schedule{Events: evs}, nil
}

// execCell runs one cell through the COCONUT runner on the resolved
// Options o. A paper-benchmark cell runs its whole §4.1 unit so read
// benchmarks see their write phase, and returns the requested member's
// aggregated result; a contention cell runs the workload spec's preload
// plus one measured phase.
func execCell(cell cellSpec, o Options, threads int, sched *faults.Schedule, faultLabel string) (coconut.Result, error) {
	o.fill()
	p := cell.params
	newDriver, err := NewDriverFunc(cell.system, p, o)
	if err != nil {
		return coconut.Result{}, err
	}
	arrival, err := o.arrivalSchedule()
	if err != nil {
		return coconut.Result{}, err
	}
	perClientRL := p.RL / scenarioClients
	if perClientRL < 1 {
		perClientRL = 1
	}
	cfg := coconut.RunConfig{
		SystemName:      cell.system,
		NewDriver:       newDriver,
		NewClock:        o.newClockFn(),
		Clients:         scenarioClients,
		RateLimit:       perClientRL,
		Arrival:         arrival,
		ArrivalSeed:     o.Seed,
		WorkloadThreads: threads,
		SendDuration:    o.paperDur(o.SendSeconds),
		ListenGrace:     o.paperDur(o.GraceSeconds),
		Repetitions:     o.Repetitions,
		Faults:          sched,
		Trace:           o.Trace,
	}

	want := string(cell.bench)
	if cell.wl != nil {
		want = cell.wl.Name()
		cfg.Workload = cell.wl
		cfg.Params = map[string]string{"RL": strconv.Itoa(p.RL), "workload": want}
	} else {
		for _, u := range coconut.BenchmarkUnits {
			for _, b := range u {
				if b == cell.bench {
					cfg.Unit = u
				}
			}
		}
		if cfg.Unit == nil {
			return coconut.Result{}, fmt.Errorf("experiments: unknown benchmark %q", cell.bench)
		}
		if sched != nil {
			// Chaos cells run only the member under test: the fault window is
			// anchored to one load phase, and the §4.1 unit coupling (reads
			// after writes) is a healthy-grid concern — which is why Validate
			// rejects read benchmarks under a fault axis.
			cfg.Unit = []coconut.BenchmarkName{cell.bench}
		}
		switch cell.system {
		case systems.NameBitShares:
			if p.Actions > 1 {
				cfg.OpsPerTx = p.Actions
			}
		case systems.NameSawtooth:
			if p.Actions > 1 {
				cfg.BatchSize = p.Actions
			}
		}
		cfg.Params = p.Labels()
	}
	if faultLabel != "" {
		cfg.Params["faults"] = faultLabel
	}

	results, err := coconut.Run(cfg)
	if err != nil {
		return coconut.Result{}, err
	}
	for _, r := range results {
		if r.Benchmark == want {
			return r, nil
		}
	}
	return coconut.Result{}, fmt.Errorf("experiments: benchmark %q missing from unit results", want)
}
