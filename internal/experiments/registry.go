package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/systems"
)

// FaultScenarioSystems lists the systems the fault and contention
// scenarios compare, in report order.
var FaultScenarioSystems = []string{
	systems.NameFabric,
	systems.NameQuorum,
	systems.NameSawtooth,
	systems.NameCordaOS,
	systems.NameCordaEnt,
	systems.NameDiem,
	systems.NameBitShares,
}

// ContentionDefaultKeys is the shared key-space / account-pool size
// contention scenarios use when the spec passes 0. It is deliberately
// small so skewed distributions produce hot keys within a scaled run,
// while staying large enough that Corda's linear vault scans complete
// inside the flow timeout.
const ContentionDefaultKeys = 64

// allBenchmarkNames renders the six paper benchmarks as plain strings for
// scenario specs.
func allBenchmarkNames() []string {
	out := make([]string, len(coconut.AllBenchmarks))
	for i, b := range coconut.AllBenchmarks {
		out[i] = string(b)
	}
	return out
}

// NewContentionScenario builds a contention-sweep scenario: every mix x
// skew combination against the seven systems at the fault plane's 200
// payloads/s load.
func NewContentionScenario(mixes, skews []string, keys int) Scenario {
	return Scenario{
		Name:        "contention-sweep",
		Description: "contention grid: operation mixes x key skews, goodput vs raw throughput",
		Systems:     FaultScenarioSystems,
		Workload:    &WorkloadSpec{Mixes: mixes, Skews: skews, Keys: keys},
		Rate:        200,
	}
}

// Registry returns every named scenario: the paper reproductions
// (figures, tables), the fault presets, the contention grid, and the
// composed contention-under-chaos scenario. Scenarios are data — the
// registry builds specs, never runners — so a paper reproduction and a
// hand-written JSON file are the same kind of value.
func Registry() []Scenario {
	grid := NewContentionScenario(
		[]string{"write", "ycsb-a", "smallbank"},
		[]string{"partitioned", "sequential", "zipfian", "hotspot"}, 0)
	grid.Name = "contention-grid"
	grid.Description = "full contention grid: {write, ycsb-a, smallbank} x {partitioned, sequential, zipfian, hotspot}"

	scs := []Scenario{
		{
			Name:        "figure3",
			Description: "Figure 3: best MTPS per system and benchmark (42 cells)",
			Systems:     AllSystems,
			Benchmarks:  allBenchmarkNames(),
			BestParams:  true,
			PaperRef:    "figure3",
		},
		{
			Name:        "figure4",
			Description: "Figure 4: the best configurations under emulated WAN latency",
			Systems:     AllSystems,
			Benchmarks:  allBenchmarkNames(),
			BestParams:  true,
			Netem:       true,
			PaperRef:    "figure4",
		},
		{
			Name:        "figure5",
			Description: "Figure 5: DoNothing scalability at 4/8/16/32 nodes",
			Systems:     AllSystems,
			Benchmarks:  []string{string(coconut.BenchDoNothing)},
			BestParams:  true,
			Netem:       true,
			Nodes:       append([]int(nil), Figure5Nodes...),
			PaperRef:    "figure5",
		},
		grid,
		{
			Name: "contention-under-chaos",
			Description: "Zipfian-skewed SmallBank across a partition-heal: per-window goodput " +
				"recovery on all seven systems (ROADMAP item 1)",
			Systems:  FaultScenarioSystems,
			Workload: &WorkloadSpec{Mixes: []string{"smallbank"}, Skews: []string{"zipfian"}},
			Rate:     200,
			Faults:   &FaultSpec{Preset: faults.PresetPartitionHeal},
			// A batch-fsync WAL rides along so traced runs of this scenario
			// carry wal:append/wal:fsync spans and the gauge series shows
			// durable-gate backlog under the partition.
			WAL: &WALSpec{Fsync: "batch"},
		},
	}

	scs = append(scs, Scenario{
		Name: "recovery-cost",
		Description: "crash-replay cost vs log length: DoNothing on all seven systems with a WAL, " +
			"sweeping crash points x snapshot intervals (replay time scales with the log at the crash)",
		Systems:    FaultScenarioSystems,
		Benchmarks: []string{string(coconut.BenchDoNothing)},
		Rate:       200,
		WAL: &WALSpec{
			Fsync:         "always",
			SnapshotEvery: []int{0, 64},
			CrashPoints:   []float64{0.45, 0.6, 0.75},
			RestartPoint:  0.9,
		},
	})

	for _, preset := range faults.PresetNames() {
		scs = append(scs, Scenario{
			Name:        "faults-" + preset,
			Description: fmt.Sprintf("all systems, DoNothing at RL=200 under the %s chaos preset", preset),
			Systems:     FaultScenarioSystems,
			Benchmarks:  []string{string(coconut.BenchDoNothing)},
			Rate:        200,
			Faults:      &FaultSpec{Preset: preset},
		})
	}
	for _, tbl := range Tables {
		grid := make([]Params, len(tbl.Rows))
		for i, row := range tbl.Rows {
			grid[i] = row.Params
		}
		scs = append(scs, Scenario{
			Name:        "table" + tbl.ID,
			Description: fmt.Sprintf("Tables %s: %s", tbl.ID, tbl.Title),
			Systems:     []string{tbl.System},
			Benchmarks:  []string{string(tbl.Benchmark)},
			ParamGrid:   grid,
			PaperRef:    "table:" + tbl.ID,
		})
	}
	return scs
}

// ScenarioNames lists the registered scenario names, sorted.
func ScenarioNames() []string {
	scs := Registry()
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
	}
	sort.Strings(names)
	return names
}

// ScenarioByName resolves a registered scenario; the error on a miss lists
// every valid name.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Registry() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("experiments: unknown scenario %q (registered: %s)",
		name, strings.Join(ScenarioNames(), ", "))
}
