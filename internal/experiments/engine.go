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
// row per cell, in deterministic expansion order, and one CellTiming per
// cell.
type Outcome struct {
	Scenario Scenario     `json:"scenario"`
	Rows     []OutcomeRow `json:"rows"`
	// Timings reports each cell's simulated-versus-wall time and clock
	// counters. The entries are wall-clock measurements, so they vary run to run
	// even when the Rows are bit-identical.
	Timings []CellTiming `json:"timings,omitempty"`
}

// CellTiming is one virtual-time cell's speed accounting: how many
// simulated seconds elapsed across the cell's clocks per wall-clock
// second spent computing them.
//
// The cell that runs a §4.1 unit carries the whole run — every member any
// cell of the scenario reports at its parameter point — so its timing
// covers the rows of the cells it serves as well. A served cell (RunBy
// set) constructs no clock: it carries only its own near-zero wall time
// and zero simulated seconds and counters.
type CellTiming struct {
	Cell        string  `json:"cell"`
	SimSeconds  float64 `json:"simSeconds"`
	WallSeconds float64 `json:"wallSeconds"`
	// Speedup is SimSeconds/WallSeconds: how much faster than real time
	// the cell ran.
	Speedup float64 `json:"speedup"`
	// Events and TimerFires are the clock's counters (clock.KernelStats)
	// summed over the cell's clocks: event functions run, deadlines fired.
	// Unlike the wall-clock fields they repeat exactly at a fixed seed.
	Events     int64 `json:"events"`
	TimerFires int64 `json:"timerFires"`
	// RunBy names the cell whose run produced this cell's row, by its
	// 1-based position in Rows (Progress.Index); 0 when the cell ran its
	// unit itself. Cell labels alone cannot name it: a parameter grid
	// repeats them.
	RunBy int `json:"runBy,omitempty"`
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

// Validate rejects options no run can honour: a clock other than the one
// virtual clock, and a NaN or infinite run length or scale, which would
// otherwise size every cell as zero or unbounded (a value <= 0 still means
// the default).
func (o Options) Validate() error {
	switch o.Time {
	case "", "virtual":
	case "real":
		return fmt.Errorf("experiments: Time %q was removed: every run executes on the virtual clock (want \"\" or \"virtual\")", o.Time)
	default:
		return fmt.Errorf("experiments: unknown Time %q (want \"\" or \"virtual\")", o.Time)
	}
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
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o.fill()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cells, err := expandCells(sc, o)
	if err != nil {
		return nil, err
	}

	plan, err := planRuns(sc, cells)
	if err != nil {
		return nil, err
	}

	out := &Outcome{Scenario: sc, Rows: make([]OutcomeRow, 0, len(cells))}
	// runs[i] holds the results of the coconut.Run cell i executed, for the
	// later cells whose rows it also serves.
	runs := make([][]coconut.Result, len(cells))
	for i, cell := range cells {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: scenario %q canceled at cell %d/%d: %w", sc.Name, i+1, len(cells), err)
		}
		if o.Progress != nil {
			o.Progress(Progress{Scenario: sc.Name, Cell: cell.label(), System: cell.system, Index: i + 1, Total: len(cells)})
		}
		// A fresh meter per cell so Timings isolate each cell's clocks; a
		// cell served by an earlier cell's run constructs none.
		o.meter = &clockMeter{}
		w0 := clock.Walltime()
		owner := plan[i].owner
		if owner == i {
			if runs[i], err = runCell(cell, plan[i].unit, sc, o); err != nil {
				return nil, fmt.Errorf("experiments: scenario %q cell %s: %w", sc.Name, cell.label(), err)
			}
		}
		res, err := memberResult(runs[owner], cell)
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
		wall := clock.Walltime().Sub(w0).Seconds()
		t := CellTiming{Cell: cell.label(), WallSeconds: wall}
		if owner != i {
			t.RunBy = owner + 1
		}
		o.meter.fill(&t)
		if wall > 0 {
			t.Speedup = t.SimSeconds / wall
		}
		out.Timings = append(out.Timings, t)
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

// cellRun is the plan for one cell's row: the cell at index owner runs
// unit once, and its results serve this cell. A cell is its own owner
// unless an earlier cell's run already covers it.
type cellRun struct {
	owner int
	// unit is the prefix of a §4.1 unit the owner runs; nil on a cell
	// served by another and on contention cells, which run their
	// workload's one phase.
	unit []coconut.BenchmarkName
}

// planRuns decides, before any cell runs, which cells share a coconut.Run.
// The paper runs a unit's members back to back on one provisioned network
// (§4.1), and every input of that run other than the system, the
// parameter point, the network size and the WAL point is per scenario. So
// the healthy paper-benchmark cells that agree on those and on their unit
// share one run, executed by the first of them in expansion order and only
// as deep as the deepest member any of them reports. A faulted cell (a
// fault axis or a WAL crash point) runs only the member under test: its
// fault window is anchored to that one load phase, which is why Validate
// rejects read benchmarks there.
func planRuns(sc Scenario, cells []cellSpec) ([]cellRun, error) {
	type runKey struct {
		system string
		params Params
		nodes  int
		wal    walCell
		unit   int
	}
	plan := make([]cellRun, len(cells))
	owners := make(map[runKey]int)
	for i, cell := range cells {
		plan[i].owner = i
		if cell.wl != nil {
			continue
		}
		u, depth := unitOf(cell.bench)
		if u < 0 {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", cell.bench)
		}
		if sc.Faults != nil || cell.wal != nil && cell.wal.crashPoint > 0 {
			plan[i].unit = []coconut.BenchmarkName{cell.bench}
			continue
		}
		k := runKey{system: cell.system, params: cell.params, nodes: cell.nodes, unit: u}
		if cell.wal != nil {
			k.wal = *cell.wal
		}
		owner, ok := owners[k]
		if !ok {
			owner = i
			owners[k] = i
		}
		plan[i].owner = owner
		if members := coconut.BenchmarkUnits[u][:depth+1]; len(members) > len(plan[owner].unit) {
			plan[owner].unit = members
		}
	}
	return plan, nil
}

// unitOf locates a paper benchmark in coconut.BenchmarkUnits: the unit's
// index and the benchmark's position in it, or -1 when no unit has it.
func unitOf(b coconut.BenchmarkName) (unit, member int) {
	for u, members := range coconut.BenchmarkUnits {
		for m, name := range members {
			if name == b {
				return u, m
			}
		}
	}
	return -1, -1
}

// memberResult hands a cell its row out of the results of the run that
// served it.
func memberResult(results []coconut.Result, cell cellSpec) (coconut.Result, error) {
	want := string(cell.bench)
	if cell.wl != nil {
		want = cell.wl.Name()
	}
	for _, r := range results {
		if r.Benchmark == want {
			return r, nil
		}
	}
	return coconut.Result{}, fmt.Errorf("experiments: benchmark %q missing from unit results", want)
}

// scenarioClients is the client-application count every scenario cell runs
// with: the paper's four clients, one per server (§4.3).
const scenarioClients = 4

// benchGridThreads is the paper grid's workload-thread count per client.
const benchGridThreads = 8

// runCell executes one resolved cell, running unit for a paper-benchmark
// cell, and returns one result per member it ran.
func runCell(cell cellSpec, unit []coconut.BenchmarkName, sc Scenario, o Options) ([]coconut.Result, error) {
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
		return nil, err
	}
	if cell.wal != nil {
		var walSched *faults.Schedule
		walSched, err = resolveWAL(cell.wal, &o)
		if err != nil {
			return nil, err
		}
		if walSched != nil {
			// Validate rejected CrashPoints+Faults, so the synthesized
			// schedule never collides with a scenario-level one.
			sched, label = walSched, "wal-crash"
		}
	}

	return execCell(cell, unit, o, sc.threads(), sched, label)
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
	o.walOpts = &opts

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
// Options o and returns one aggregated result per member it ran. A
// paper-benchmark cell runs unit, the prefix of its §4.1 unit that planRuns
// chose: members back to back on one network, so read benchmarks see
// their write phase. A contention cell runs the workload spec's preload
// plus one measured phase.
func execCell(cell cellSpec, unit []coconut.BenchmarkName, o Options, threads int, sched *faults.Schedule, faultLabel string) ([]coconut.Result, error) {
	o.fill()
	p := cell.params
	newDriver, err := NewDriverFunc(cell.system, p, o)
	if err != nil {
		return nil, err
	}
	arrival, err := o.arrivalSchedule()
	if err != nil {
		return nil, err
	}
	perClientRL := p.RL / scenarioClients
	if perClientRL < 1 {
		perClientRL = 1
	}
	cfg := coconut.RunConfig{
		SystemName:      cell.system,
		NewDriver:       newDriver,
		NewClock:        o.newClockFn(),
		Unit:            unit,
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

	if cell.wl != nil {
		cfg.Workload = cell.wl
		cfg.Params = map[string]string{"RL": strconv.Itoa(p.RL), "workload": cell.wl.Name()}
	} else {
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
	return coconut.Run(cfg)
}
