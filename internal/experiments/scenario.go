package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/wal"
	"github.com/coconut-bench/coconut/internal/workload"
)

// Scenario is the declarative experiment spec: one serializable value
// composing every axis of the evaluation plane — which systems run, what
// load they run (a paper benchmark unit or a contention workload), how the
// load arrives, how large the network is, what faults strike it, and how
// often the whole thing repeats. The engine (Run) executes any valid
// composition, so paper reproductions, chaos scenarios, and contention
// sweeps are all the same kind of value, and combinations the bespoke
// runners could not express — skewed SmallBank across a partition-heal —
// are just another Scenario.
//
// A zero field means "default": Systems defaults to all seven in paper
// order, Benchmarks to the full six-benchmark grid (when no Workload is
// set), Nodes to the engine's 4-node network, and Rate to 200 payloads/s
// total. Fields that select conflicting axes (Benchmarks vs Workload,
// BestParams vs explicit Params) are rejected by Validate with an error
// naming both fields.
type Scenario struct {
	// Name identifies the scenario in reports and the registry.
	Name string `json:"name,omitempty"`
	// Description is the one-line summary shown by -list and in reports.
	Description string `json:"description,omitempty"`
	// Systems lists the systems to run, in report order. Empty means all
	// seven in the paper's column order.
	Systems []string `json:"systems,omitempty"`
	// Benchmarks lists paper benchmarks to run. Each runs inside its §4.1
	// unit so read benchmarks see their write phase; the cells of one
	// system, parameter point, network size and WAL point that share a
	// unit share one run of it, which goes as deep as the deepest member
	// listed. Mutually exclusive with Workload. Empty with no Workload
	// means the full six-benchmark grid.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Workload selects the contention plane instead of paper benchmarks: a
	// grid of operation mixes x key skews over a shared key space.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// BestParams uses each (system, benchmark) cell's Figure 3 winning
	// configuration. Mutually exclusive with Params/ParamGrid/Rate.
	BestParams bool `json:"bestParams,omitempty"`
	// Params fixes one explicit parameter point for every cell.
	Params *Params `json:"params,omitempty"`
	// ParamGrid sweeps several parameter points per cell (the paper-table
	// shape). Mutually exclusive with Params.
	ParamGrid []Params `json:"paramGrid,omitempty"`
	// Rate is the total rate limit across the four clients when no Params
	// carry one; 0 defaults to 200 (the fault/contention planes' load).
	Rate int `json:"rate,omitempty"`
	// Arrival names the client arrival schedule; empty inherits the
	// engine Options (default uniform).
	Arrival string `json:"arrival,omitempty"`
	// Nodes lists network sizes to sweep; empty inherits Options.Nodes
	// (default 4).
	Nodes []int `json:"nodes,omitempty"`
	// Netem applies the paper's emulated WAN latency (§5.8.1).
	Netem bool `json:"netem,omitempty"`
	// Threads is the workload threads per client; 0 picks the legacy
	// defaults (8 for pure benchmark grids, 4 once faults or a contention
	// workload are in play).
	Threads int `json:"threads,omitempty"`
	// Faults injects a chaos schedule into every benchmark phase. A chaos
	// cell runs only the benchmark under test, so Validate rejects read
	// benchmarks here (and under WAL.CrashPoints).
	Faults *FaultSpec `json:"faults,omitempty"`
	// WAL runs every node on a write-ahead log and optionally sweeps the
	// durability axis: fsync policy x snapshot interval x crash schedule.
	WAL *WALSpec `json:"wal,omitempty"`
	// Repetitions overrides Options.Repetitions when > 0.
	Repetitions int `json:"repetitions,omitempty"`
	// Seed overrides Options.Seed when != 0.
	Seed int64 `json:"seed,omitempty"`
	// PaperRef attaches the paper's reference values to the result rows:
	// "figure3" (BestParams, no Netem), "figure4" (BestParams, Netem),
	// "figure5" (Nodes, Netem, DoNothing only), or "table:<id>" (e.g.
	// "table:13+14": the table's system, benchmark and ParamGrid rows).
	PaperRef string `json:"paperRef,omitempty"`
}

// WorkloadSpec is the contention axis of a scenario: every mix x skew
// combination runs against every system.
type WorkloadSpec struct {
	// Mixes lists operation mixes ("write", "ycsb-a", "kv:PCT",
	// "smallbank", ...); empty means ["write"].
	Mixes []string `json:"mixes,omitempty"`
	// Skews lists key distributions ("partitioned", "sequential",
	// "zipfian[:S]", "hotspot[:KF[:OF]]"); empty means ["zipfian"].
	Skews []string `json:"skews,omitempty"`
	// Keys sizes the shared key space / account pool; 0 means the sweep
	// default (ContentionDefaultKeys, raised for partitioned controls).
	Keys int `json:"keys,omitempty"`
}

func (w *WorkloadSpec) mixes() []string {
	if w == nil || len(w.Mixes) == 0 {
		return []string{"write"}
	}
	return w.Mixes
}

func (w *WorkloadSpec) skews() []string {
	if w == nil || len(w.Skews) == 0 {
		return []string{"zipfian"}
	}
	return w.Skews
}

// FaultSpec names a chaos preset or inlines a schedule. Exactly one of the
// two fields must be set. Inline schedule offsets and extra latencies are
// paper-time (a "90s" event fires 90 paper-seconds into the load window);
// the engine scales them with every other duration.
type FaultSpec struct {
	// Preset is a named schedule (faults.PresetNames) built against the
	// run's node count and load window.
	Preset string `json:"preset,omitempty"`
	// Schedule is an inline paper-time schedule.
	Schedule *faults.Schedule `json:"schedule,omitempty"`
}

// Label renders the fault axis for result rows: the preset name, or
// "inline" for ad-hoc schedules.
func (f *FaultSpec) Label() string {
	if f == nil {
		return ""
	}
	if f.Preset != "" {
		return f.Preset
	}
	return "inline"
}

// WALSpec is the durability axis of a scenario: every node's commit plane
// runs through an internal/wal log, and the sweep dimensions below expand
// like any other axis. Durations are paper-time and scale with the engine.
type WALSpec struct {
	// Fsync is the log's sync policy ("always", "batch", "never"); empty
	// means "always".
	Fsync string `json:"fsync,omitempty"`
	// BatchRecords and BatchInterval tune the "batch" policy (sync every N
	// records or after the interval, whichever first); both require
	// Fsync == "batch". Zero values take the wal package defaults.
	BatchRecords  int    `json:"batchRecords,omitempty"`
	BatchInterval string `json:"batchInterval,omitempty"`
	// SnapshotEvery sweeps the snapshot/compaction interval in records per
	// node (0 = never snapshot); empty means [0].
	SnapshotEvery []int `json:"snapshotEvery,omitempty"`
	// CrashPoints sweeps crash offsets as fractions of the send window in
	// (0, 1): each point synthesizes a crash of the last node at that
	// offset with a restart at RestartPoint, so recovery cost can be
	// measured against log length. Empty means no crashes. Mutually
	// exclusive with Faults (one schedule owner per scenario).
	CrashPoints []float64 `json:"crashPoints,omitempty"`
	// RestartPoint is the restart offset as a fraction of the send window;
	// 0 defaults to 0.85. Every CrashPoints entry must fall before it.
	RestartPoint float64 `json:"restartPoint,omitempty"`
	// Corruption damages the crashed node's log before its restart:
	// "torn-write" truncates the final record mid-frame, "corrupt-record"
	// flips bytes mid-log. Requires CrashPoints.
	Corruption string `json:"corruption,omitempty"`
}

func (ws *WALSpec) snapshotIntervals() []int {
	if ws == nil || len(ws.SnapshotEvery) == 0 {
		return []int{0}
	}
	return ws.SnapshotEvery
}

func (ws *WALSpec) restartPoint() float64 {
	if ws == nil || ws.RestartPoint == 0 {
		return 0.85
	}
	return ws.RestartPoint
}

// Label renders the WAL axis for result rows.
func (ws *WALSpec) Label(snapshotEvery int, crashPoint float64) string {
	if ws == nil {
		return ""
	}
	fsync := ws.Fsync
	if fsync == "" {
		fsync = wal.FsyncAlways
	}
	l := "fsync=" + fsync
	if snapshotEvery > 0 {
		l += fmt.Sprintf("/snap=%d", snapshotEvery)
	}
	if crashPoint > 0 {
		l += fmt.Sprintf("/crash=%.2f", crashPoint)
	}
	if ws.Corruption != "" {
		l += "/" + ws.Corruption
	}
	return l
}

// ParseScenario decodes a Scenario from JSON, rejecting unknown fields so
// a typo'd axis name fails loudly instead of silently running the default.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("experiments: parse scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Validate checks the scenario for unknown axis values and conflicting
// fields, returning errors that name the offending field and the valid
// choices. A valid scenario is guaranteed to expand into a runnable cell
// list (faults are additionally re-validated against the concrete run
// length and node count when the engine runs them).
func (s Scenario) Validate() error {
	name := s.Name
	if name == "" {
		name = "(unnamed)"
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("experiments: scenario %s: %s", name, fmt.Sprintf(format, args...))
	}

	for _, sys := range s.Systems {
		if !slices.Contains(AllSystems, sys) {
			return fail("unknown system %q (want one of %s)", sys, strings.Join(AllSystems, ", "))
		}
	}

	if len(s.Benchmarks) > 0 && s.Workload != nil {
		return fail("Benchmarks and Workload are mutually exclusive: a cell runs either a paper benchmark unit or a contention workload — drop one of the two fields")
	}
	for _, b := range s.Benchmarks {
		if !slices.Contains(allBenchmarkNames(), b) {
			return fail("unknown benchmark %q (want one of %s)", b, strings.Join(allBenchmarkNames(), ", "))
		}
	}

	if s.Workload != nil {
		if s.BestParams {
			return fail("BestParams and Workload conflict: the Figure 3 winning configurations are per paper-benchmark cell and do not apply to contention workloads — set Rate instead")
		}
		if s.Params != nil || len(s.ParamGrid) > 0 {
			return fail("Params/ParamGrid and Workload conflict: contention cells take their load from Rate, not the paper parameter grid")
		}
		if s.Workload.Keys < 0 {
			return fail("Workload.Keys %d is negative", s.Workload.Keys)
		}
		for _, m := range s.Workload.mixes() {
			if _, err := workload.MixByName(m); err != nil {
				return fail("bad workload mix: %v", err)
			}
		}
		for _, d := range s.Workload.skews() {
			if _, err := workload.DistByName(d); err != nil {
				return fail("bad workload skew: %v", err)
			}
		}
	}

	if s.BestParams && (s.Params != nil || len(s.ParamGrid) > 0) {
		return fail("BestParams and Params/ParamGrid conflict: either reuse each cell's Figure 3 winning configuration or spell parameters out, not both")
	}
	if s.Params != nil && len(s.ParamGrid) > 0 {
		return fail("Params and ParamGrid conflict: use Params for one parameter point or ParamGrid for a sweep, not both")
	}
	if s.Rate < 0 {
		return fail("Rate %d is negative", s.Rate)
	}
	if s.Rate > 0 {
		if s.BestParams {
			return fail("Rate and BestParams conflict: the Figure 3 configurations fix each cell's own rate limiter (Params.RL)")
		}
		if s.Params != nil && s.Params.RL > 0 {
			return fail("Rate %d and Params.RL %d conflict: set the total rate in one place", s.Rate, s.Params.RL)
		}
		for _, p := range s.ParamGrid {
			if p.RL > 0 {
				return fail("Rate %d and ParamGrid RL %d conflict: set the total rate in one place", s.Rate, p.RL)
			}
		}
	}

	if s.Arrival != "" {
		if _, err := coconut.ArrivalByName(s.Arrival); err != nil {
			return fail("bad arrival: %v", err)
		}
	}
	for _, n := range s.Nodes {
		if n < 2 {
			return fail("Nodes entry %d is below the 2-node minimum", n)
		}
	}
	if s.Threads < 0 {
		return fail("Threads %d is negative", s.Threads)
	}
	if s.Repetitions < 0 {
		return fail("Repetitions %d is negative", s.Repetitions)
	}

	if f := s.Faults; f != nil {
		switch {
		case f.Preset != "" && f.Schedule != nil:
			return fail("Faults.Preset and Faults.Schedule conflict: name a preset or inline a schedule, not both")
		case f.Preset == "" && f.Schedule == nil:
			return fail("Faults is set but names no preset and inlines no schedule (presets: %s)", strings.Join(faults.PresetNames(), ", "))
		case f.Preset != "":
			if !slices.Contains(faults.PresetNames(), f.Preset) {
				return fail("unknown fault preset %q (want one of %s)", f.Preset, strings.Join(faults.PresetNames(), ", "))
			}
		default:
			if len(f.Schedule.Events) == 0 {
				return fail("inline fault schedule has no events")
			}
			for i, ev := range f.Schedule.Events {
				if _, err := faults.ParseKind(ev.Kind.String()); err != nil {
					return fail("inline fault event %d: %v", i, err)
				}
				if ev.At < 0 {
					return fail("inline fault event %d (%s) at negative offset %v", i, ev.Kind, ev.At)
				}
				if ev.Loss < 0 || ev.Loss >= 1 {
					return fail("inline fault event %d (%s) loss %.2f outside [0, 1)", i, ev.Kind, ev.Loss)
				}
			}
		}
	}

	if ws := s.WAL; ws != nil {
		if !wal.ValidFsync(ws.Fsync) {
			return fail("unknown WAL.Fsync %q (want %s, %s, or %s)", ws.Fsync, wal.FsyncAlways, wal.FsyncBatch, wal.FsyncNever)
		}
		if (ws.BatchRecords != 0 || ws.BatchInterval != "") && ws.Fsync != wal.FsyncBatch {
			return fail("WAL.BatchRecords/BatchInterval require Fsync %q, got %q", wal.FsyncBatch, ws.Fsync)
		}
		if ws.BatchRecords < 0 {
			return fail("WAL.BatchRecords %d is negative", ws.BatchRecords)
		}
		if ws.BatchInterval != "" {
			if d, err := time.ParseDuration(ws.BatchInterval); err != nil {
				return fail("bad WAL.BatchInterval %q (want a duration like \"250ms\"): %v", ws.BatchInterval, err)
			} else if d <= 0 {
				return fail("WAL.BatchInterval %q is not positive", ws.BatchInterval)
			}
		}
		for _, n := range ws.SnapshotEvery {
			if n < 0 {
				return fail("WAL.SnapshotEvery entry %d is negative", n)
			}
		}
		rp := ws.restartPoint()
		if rp <= 0 || rp > 1 {
			return fail("WAL.RestartPoint %.2f outside (0, 1]", ws.RestartPoint)
		}
		for _, cp := range ws.CrashPoints {
			if cp <= 0 || cp >= 1 {
				return fail("WAL.CrashPoints entry %.2f outside (0, 1)", cp)
			}
			if cp >= rp {
				return fail("WAL.CrashPoints entry %.2f is not before RestartPoint %.2f", cp, rp)
			}
		}
		if len(ws.CrashPoints) > 0 && s.Faults != nil {
			return fail("WAL.CrashPoints and Faults conflict: crash points synthesize their own schedule — inline WAL crashes into Faults.Schedule or drop one axis")
		}
		switch ws.Corruption {
		case "", "torn-write", "corrupt-record":
		default:
			return fail("unknown WAL.Corruption %q (want torn-write or corrupt-record)", ws.Corruption)
		}
		if ws.Corruption != "" && len(ws.CrashPoints) == 0 {
			return fail("WAL.Corruption %q requires CrashPoints: log damage is only observable across a crash and restart", ws.Corruption)
		}
	}

	ref, err := parsePaperRef(s.PaperRef)
	if err != nil {
		return fail("%v", err)
	}
	if ref.kind != refNone {
		if s.Workload != nil {
			return fail("PaperRef %q and Workload conflict: the paper has no contention reference values", s.PaperRef)
		}
		if why := ref.check(s); why != "" {
			return fail("PaperRef %q %s", s.PaperRef, why)
		}
	}

	// A chaos cell runs only the member under test (see planRuns), so a
	// read benchmark there would read keys no write phase ever wrote and
	// report every operation as an abort.
	chaos := ""
	switch {
	case s.Faults != nil:
		chaos = "Faults"
	case s.WAL != nil && len(s.WAL.CrashPoints) > 0:
		chaos = "WAL.CrashPoints"
	}
	if chaos != "" {
		for _, b := range s.benchmarks() {
			if dep := coconut.ReadBenchmarkDependsOnWrite(b); dep != "" {
				return fail("%s and Benchmarks conflict: a chaos cell runs only the benchmark under test, so %s would read keys %s never wrote — drop %s (an empty Benchmarks means all six) or the %s axis", chaos, b, dep, b, chaos)
			}
		}
	}
	return nil
}

// systems returns the effective system list.
func (s Scenario) systems() []string {
	if len(s.Systems) > 0 {
		return s.Systems
	}
	return AllSystems
}

// benchmarks returns the effective paper-benchmark list (nil when the
// scenario runs a contention workload instead).
func (s Scenario) benchmarks() []coconut.BenchmarkName {
	if s.Workload != nil {
		return nil
	}
	if len(s.Benchmarks) == 0 {
		return coconut.AllBenchmarks
	}
	out := make([]coconut.BenchmarkName, len(s.Benchmarks))
	for i, b := range s.Benchmarks {
		out[i] = coconut.BenchmarkName(b)
	}
	return out
}

// rate returns the effective total rate limit for cells without explicit
// parameter points.
func (s Scenario) rate() int {
	if s.Rate > 0 {
		return s.Rate
	}
	return 200
}

// threads returns the effective workload threads per client: the explicit
// value, or the legacy defaults (8 for the pure paper grid, 4 once the
// fault or contention axis is active).
func (s Scenario) threads() int {
	if s.Threads > 0 {
		return s.Threads
	}
	if s.Workload != nil || s.Faults != nil || s.WAL != nil {
		return 4
	}
	return benchGridThreads
}
