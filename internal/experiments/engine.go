package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
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
	// in paper seconds). A zero MTPS on a figure reference marks a cell
	// the paper reports as failed.
	MTPS float64 `json:"mtps"`
	MFLS float64 `json:"mfls,omitempty"`
	// Received/Expected are the paper's NoT accounting (table references).
	Received float64 `json:"received,omitempty"`
	Expected float64 `json:"expected,omitempty"`
	// Failed marks scalability cells the paper reports as failed (§5.8.2).
	Failed bool `json:"failed,omitempty"`
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

	for _, system := range sc.systems() {
		for _, bench := range sc.benchmarks() {
			rows, refs, err := paramRows(sc, system, bench)
			if err != nil {
				return nil, err
			}
			for ri, p := range rows {
				for _, n := range nodes {
					ref := refs[ri]
					if sc.PaperRef == "figure5" {
						failed := false
						for _, fn := range Figure5Failed[system] {
							if fn == n {
								failed = true
							}
						}
						ref = &PaperRefValues{Failed: failed}
					}
					cells = append(cells, cellSpec{
						system: system,
						bench:  bench,
						params: p,
						nodes:  n,
						paper:  ref,
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

// paramRows resolves the parameter points (and paired paper references)
// for one (system, benchmark) cell.
func paramRows(sc Scenario, system string, bench coconut.BenchmarkName) ([]Params, []*PaperRefValues, error) {
	switch {
	case sc.BestParams:
		cell, ok := BestCell(system, bench)
		if !ok {
			return nil, nil, fmt.Errorf("no Figure 3 configuration for %s/%s", system, bench)
		}
		var ref *PaperRefValues
		switch sc.PaperRef {
		case "figure3":
			ref = &PaperRefValues{MTPS: cell.MTPS, MFLS: cell.MFLS}
		case "figure4":
			ref = &PaperRefValues{MTPS: Figure4MTPS[system][bench]}
		}
		return []Params{cell.Params}, []*PaperRefValues{ref}, nil

	case len(sc.ParamGrid) > 0:
		refs := make([]*PaperRefValues, len(sc.ParamGrid))
		if id, ok := strings.CutPrefix(sc.PaperRef, "table:"); ok {
			tbl, _ := TableByID(id)
			for i, p := range sc.ParamGrid {
				for _, row := range tbl.Rows {
					if row.Params == p && tbl.System == system && tbl.Benchmark == bench {
						refs[i] = &PaperRefValues{MTPS: row.PaperMTPS, MFLS: row.PaperMFLS,
							Received: row.PaperReceived, Expected: row.PaperExpected}
					}
				}
			}
		}
		return sc.ParamGrid, refs, nil

	case sc.Params != nil:
		return []Params{*sc.Params}, []*PaperRefValues{nil}, nil

	default:
		return []Params{{RL: sc.rate()}}, []*PaperRefValues{nil}, nil
	}
}

// scenarioClients is the client-application count every scenario cell runs
// with: the paper's four clients, one per server (§4.3).
const scenarioClients = 4

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

	if cell.wl != nil {
		return runWorkloadCell(cell.system, cell.wl, o, sc.threads(), cell.params.RL, sched, label)
	}
	return runUnitCell(cell.system, cell.bench, cell.params, o, sc.threads(), sched, label)
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
// the engine Options (threaded into every driver Config by NewDriverFunc)
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

// runUnitCell runs one paper-benchmark cell: the whole §4.1 unit executes
// so read benchmarks see their write phase, and the requested member's
// aggregated result is returned. It is the engine's benchmark-cell
// executor and the body behind the public RunCell.
func runUnitCell(system string, bench coconut.BenchmarkName, p Params, o Options, threads int, sched *faults.Schedule, faultLabel string) (coconut.Result, error) {
	o.fill()
	newDriver, err := NewDriverFunc(system, p, o)
	if err != nil {
		return coconut.Result{}, err
	}

	var unit []coconut.BenchmarkName
	for _, u := range coconut.BenchmarkUnits {
		for _, b := range u {
			if b == bench {
				unit = u
			}
		}
	}
	if unit == nil {
		return coconut.Result{}, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	if sched != nil {
		// Chaos cells run only the member under test: the fault window is
		// anchored to one load phase, and the §4.1 unit coupling (reads
		// after writes) is a healthy-grid concern.
		unit = []coconut.BenchmarkName{bench}
	}

	perClientRL := p.RL / scenarioClients
	if perClientRL < 1 {
		perClientRL = 1
	}
	opsPerTx, batchSize := 1, 1
	switch system {
	case systems.NameBitShares:
		if p.Actions > 1 {
			opsPerTx = p.Actions
		}
	case systems.NameSawtooth:
		if p.Actions > 1 {
			batchSize = p.Actions
		}
	}

	arrival, err := o.arrivalSchedule()
	if err != nil {
		return coconut.Result{}, err
	}
	labels := p.Labels()
	if faultLabel != "" {
		labels["faults"] = faultLabel
	}
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      system,
		NewDriver:       newDriver,
		NewClock:        o.newClockFn(),
		Unit:            unit,
		Clients:         scenarioClients,
		RateLimit:       perClientRL,
		Arrival:         arrival,
		ArrivalSeed:     o.Seed,
		WorkloadThreads: threads,
		OpsPerTx:        opsPerTx,
		BatchSize:       batchSize,
		SendDuration:    o.paperDur(o.SendSeconds),
		ListenGrace:     o.paperDur(o.GraceSeconds),
		Repetitions:     o.Repetitions,
		Faults:          sched,
		Params:          labels,
		Trace:           o.Trace,
	})
	if err != nil {
		return coconut.Result{}, err
	}
	for _, r := range results {
		if r.Benchmark == string(bench) {
			return r, nil
		}
	}
	return coconut.Result{}, fmt.Errorf("experiments: benchmark %q missing from unit results", bench)
}

// runWorkloadCell runs one contention cell: the spec's preload plus one
// measured phase, optionally under a fault schedule.
func runWorkloadCell(system string, spec *workload.Spec, o Options, threads, rate int, sched *faults.Schedule, faultLabel string) (coconut.Result, error) {
	o.fill()
	newDriver, err := NewDriverFunc(system, Params{RL: rate}, o)
	if err != nil {
		return coconut.Result{}, err
	}
	arrival, err := o.arrivalSchedule()
	if err != nil {
		return coconut.Result{}, err
	}
	perClientRL := rate / scenarioClients
	if perClientRL < 1 {
		perClientRL = 1
	}
	labels := map[string]string{"RL": itoa(rate), "workload": spec.Name()}
	if faultLabel != "" {
		labels["faults"] = faultLabel
	}
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      system,
		NewDriver:       newDriver,
		NewClock:        o.newClockFn(),
		Workload:        spec,
		Clients:         scenarioClients,
		RateLimit:       perClientRL,
		Arrival:         arrival,
		ArrivalSeed:     o.Seed,
		WorkloadThreads: threads,
		SendDuration:    o.paperDur(o.SendSeconds),
		ListenGrace:     o.paperDur(o.GraceSeconds),
		Repetitions:     o.Repetitions,
		Faults:          sched,
		Params:          labels,
		Trace:           o.Trace,
	})
	if err != nil {
		return coconut.Result{}, err
	}
	return results[0], nil
}
