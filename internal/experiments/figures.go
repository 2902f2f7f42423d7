package experiments

import (
	"fmt"
	"slices"
	"strings"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/systems"
)

// PaperCell is one cell of the paper's Figure 3/4 heat maps: the best MTPS
// configuration and its reported metrics.
type PaperCell struct {
	System    string
	Benchmark coconut.BenchmarkName
	Params    Params
	// Reported values from the paper (MTPS, MFLS seconds, Duration
	// seconds). A zero MTPS marks a failed cell.
	MTPS float64
	MFLS float64
	Dur  float64
	// NetemMTPS is Figure 4's MTPS: the same configuration re-run under
	// emulated latency (mu 12ms, sigma 2ms). Zero marks a failed cell.
	NetemMTPS float64
}

// AllSystems lists the seven systems in the paper's column order.
var AllSystems = []string{
	systems.NameCordaOS,
	systems.NameCordaEnt,
	systems.NameBitShares,
	systems.NameFabric,
	systems.NameQuorum,
	systems.NameSawtooth,
	systems.NameDiem,
}

// Figure3 is the paper's Figure 3: best MTPS per (system, benchmark) with
// the winning configuration, and Figure 4's MTPS for the same cell as the
// last column. Values transcribed from the figures.
var Figure3 = []PaperCell{
	// Corda OS (RL is the total across the four clients).
	{systems.NameCordaOS, coconut.BenchDoNothing, Params{RL: 20}, 7.18, 112.64, 348.00, 7.22},
	{systems.NameCordaOS, coconut.BenchKeyValueSet, Params{RL: 40}, 4.65, 214.60, 361.33, 4.34},
	{systems.NameCordaOS, coconut.BenchKeyValueGet, Params{RL: 20}, 0.00, 0, 0, 0},
	{systems.NameCordaOS, coconut.BenchCreateAccount, Params{RL: 20}, 6.87, 117.42, 352.67, 6.89},
	{systems.NameCordaOS, coconut.BenchSendPayment, Params{RL: 20}, 0.00, 0, 0, 0},
	{systems.NameCordaOS, coconut.BenchBalance, Params{RL: 80}, 0.27, 132.41, 404.33, 0.28},

	// Corda Enterprise.
	{systems.NameCordaEnt, coconut.BenchDoNothing, Params{RL: 80}, 64.64, 3.83, 303.00, 64.76},
	{systems.NameCordaEnt, coconut.BenchKeyValueSet, Params{RL: 160}, 13.51, 31.59, 338.33, 13.49},
	{systems.NameCordaEnt, coconut.BenchKeyValueGet, Params{RL: 20}, 3.52, 111.50, 354.00, 3.09},
	{systems.NameCordaEnt, coconut.BenchCreateAccount, Params{RL: 80}, 61.95, 4.37, 303.33, 61.92},
	{systems.NameCordaEnt, coconut.BenchSendPayment, Params{RL: 20}, 0.13, 306.35, 350.00, 0},
	{systems.NameCordaEnt, coconut.BenchBalance, Params{RL: 20}, 1.12, 131.00, 375.33, 0},

	// BitShares (Actions = operations per transaction).
	{systems.NameBitShares, coconut.BenchDoNothing, Params{RL: 1600, BI: 1, Actions: 100}, 1599.89, 1.09, 305.00, 1589.30},
	{systems.NameBitShares, coconut.BenchKeyValueSet, Params{RL: 1600, BI: 5, Actions: 50}, 1582.79, 5.94, 306.00, 654.12},
	{systems.NameBitShares, coconut.BenchKeyValueGet, Params{RL: 1600, BI: 5, Actions: 50}, 1581.38, 5.45, 306.00, 579.45},
	{systems.NameBitShares, coconut.BenchCreateAccount, Params{RL: 1600, BI: 2, Actions: 50}, 1588.95, 3.00, 304.67, 1046.87},
	{systems.NameBitShares, coconut.BenchSendPayment, Params{RL: 1600, BI: 2, Actions: 100}, 125.99, 15.63, 79.67, 6.62},
	{systems.NameBitShares, coconut.BenchBalance, Params{RL: 1600, BI: 2, Actions: 100}, 164.07, 11.16, 59.67, 9.96},

	// Fabric.
	{systems.NameFabric, coconut.BenchDoNothing, Params{RL: 1600, MM: 1000}, 1461.05, 13.92, 318.67, 898.78},
	{systems.NameFabric, coconut.BenchKeyValueSet, Params{RL: 1600, MM: 100}, 1337.86, 2.71, 311.00, 866.64},
	{systems.NameFabric, coconut.BenchKeyValueGet, Params{RL: 1600, MM: 100}, 1416.94, 1.49, 310.00, 885.24},
	{systems.NameFabric, coconut.BenchCreateAccount, Params{RL: 1600, MM: 1000}, 1367.06, 23.62, 326.67, 872.52},
	{systems.NameFabric, coconut.BenchSendPayment, Params{RL: 1600, MM: 100}, 1285.29, 6.66, 318.00, 866.30},
	{systems.NameFabric, coconut.BenchBalance, Params{RL: 1600, MM: 1000}, 1305.32, 20.78, 321.33, 883.65},

	// Quorum.
	{systems.NameQuorum, coconut.BenchDoNothing, Params{RL: 800, BP: 1}, 773.60, 10.32, 311.33, 605.04},
	{systems.NameQuorum, coconut.BenchKeyValueSet, Params{RL: 400, BP: 1}, 340.55, 9.79, 79.67, 243.13},
	{systems.NameQuorum, coconut.BenchKeyValueGet, Params{RL: 400, BP: 5}, 362.96, 13.81, 182.33, 338.46},
	{systems.NameQuorum, coconut.BenchCreateAccount, Params{RL: 400, BP: 1}, 345.13, 9.74, 101.67, 258.05},
	{systems.NameQuorum, coconut.BenchSendPayment, Params{RL: 1600, BP: 5}, 235.13, 16.10, 302.00, 320.10},
	{systems.NameQuorum, coconut.BenchBalance, Params{RL: 400, BP: 5}, 365.85, 12.34, 190.00, 362.50},

	// Sawtooth (Actions = transactions per batch).
	{systems.NameSawtooth, coconut.BenchDoNothing, Params{RL: 200, PD: 2, Actions: 100}, 103.47, 22.17, 96.67, 102.74},
	{systems.NameSawtooth, coconut.BenchKeyValueSet, Params{RL: 200, PD: 10, Actions: 100}, 90.28, 19.68, 349.67, 88.55},
	{systems.NameSawtooth, coconut.BenchKeyValueGet, Params{RL: 200, PD: 1, Actions: 100}, 92.91, 10.75, 47.00, 76.86},
	{systems.NameSawtooth, coconut.BenchCreateAccount, Params{RL: 200, PD: 10, Actions: 100}, 67.57, 25.84, 344.33, 64.83},
	{systems.NameSawtooth, coconut.BenchSendPayment, Params{RL: 200, PD: 5, Actions: 100}, 16.32, 25.39, 353.33, 15.02},
	{systems.NameSawtooth, coconut.BenchBalance, Params{RL: 400, PD: 10, Actions: 100}, 73.25, 15.13, 37.33, 30.24},

	// Diem.
	{systems.NameDiem, coconut.BenchDoNothing, Params{RL: 200, BS: 1000}, 96.40, 93.10, 324.67, 94.12},
	{systems.NameDiem, coconut.BenchKeyValueSet, Params{RL: 200, BS: 1000}, 68.80, 111.26, 324.67, 70.50},
	{systems.NameDiem, coconut.BenchKeyValueGet, Params{RL: 200, BS: 2000}, 64.22, 107.78, 261.33, 67.99},
	{systems.NameDiem, coconut.BenchCreateAccount, Params{RL: 200, BS: 2000}, 77.02, 130.43, 401.33, 74.27},
	{systems.NameDiem, coconut.BenchSendPayment, Params{RL: 200, BS: 2000}, 56.57, 139.21, 412.33, 56.82},
	{systems.NameDiem, coconut.BenchBalance, Params{RL: 200, BS: 2000}, 50.14, 144.93, 384.67, 46.16},
}

// figure5Failures holds the DoNothing cells the paper reports as failed in
// the scalability experiment (§5.8.2), by system and node count. Fabric's
// and Sawtooth's are transcribed: the model reproduces them only through
// thresholds copied from this result (fabric.Config.EventLossAtPeers,
// sawtooth.Config.PendingStallAtValidators), so matching them is not
// agreement.
var figure5Failures = map[string]map[int]PaperRefValues{
	systems.NameCordaOS:  {32: {Failed: true}},
	systems.NameFabric:   {16: {Failed: true, transcribed: true}, 32: {Failed: true, transcribed: true}},
	systems.NameSawtooth: {16: {Failed: true, transcribed: true}, 32: {Failed: true, transcribed: true}},
}

// Figure5Nodes lists the swept network sizes.
var Figure5Nodes = []int{4, 8, 16, 32}

// BestCell returns the Figure 3 cell for a system/benchmark pair.
func BestCell(system string, bench coconut.BenchmarkName) (PaperCell, bool) {
	for _, c := range Figure3 {
		if c.System == system && c.Benchmark == bench {
			return c, true
		}
	}
	return PaperCell{}, false
}

// refKind is what a Scenario.PaperRef points at.
type refKind int

const (
	refNone refKind = iota
	refFigure3
	refFigure4
	refFigure5
	refTable
)

// paperRef is a decoded Scenario.PaperRef.
type paperRef struct {
	kind  refKind
	table Table // set when kind is refTable
}

// figureRefs maps the figure references to their kinds.
var figureRefs = map[string]refKind{"figure3": refFigure3, "figure4": refFigure4, "figure5": refFigure5}

// parsePaperRef decodes a Scenario.PaperRef. It is the one reader of the
// string's spelling: validation, cell expansion and the report all switch
// on its result.
func parsePaperRef(s string) (paperRef, error) {
	if kind, ok := figureRefs[s]; ok || s == "" {
		return paperRef{kind: kind}, nil
	}
	id, ok := strings.CutPrefix(s, "table:")
	if !ok {
		return paperRef{}, fmt.Errorf("unknown PaperRef %q (want figure3, figure4, figure5, or table:<id>)", s)
	}
	tbl, ok := TableByID(id)
	if !ok {
		ids := make([]string, len(Tables))
		for i, t := range Tables {
			ids[i] = t.ID
		}
		return paperRef{}, fmt.Errorf("unknown paper table %q in PaperRef (want one of %s)", id, strings.Join(ids, ", "))
	}
	return paperRef{kind: refTable, table: tbl}, nil
}

// heatMap reports whether the reference is Figure 3 or 4: one MTPS per
// (system, benchmark) cell, which Fidelity summarises.
func (r paperRef) heatMap() bool { return r.kind == refFigure3 || r.kind == refFigure4 }

// check returns why scenario s does not run the experiment the reference
// reports, or "" when every cell it expands to has its reference values.
func (r paperRef) check(s Scenario) string {
	t := r.table
	switch {
	case r.heatMap() && !s.BestParams:
		return "requires BestParams: the figure reports each cell at its winning configuration"
	case r.kind == refFigure3 && s.Netem:
		return "forbids Netem: Figure 3 ran without emulated latency (Figure 4 is the netem run)"
	case r.kind == refFigure4 && !s.Netem:
		return "requires Netem: Figure 4 re-runs Figure 3 under emulated WAN latency"
	case r.kind == refFigure5 && (len(s.Nodes) == 0 || !s.Netem || !slices.Equal(s.Benchmarks, []string{string(coconut.BenchDoNothing)})):
		return "requires Nodes, Netem and Benchmarks [DoNothing]: Figure 5 sweeps DoNothing over network sizes under emulated latency"
	case r.kind == refTable && (!slices.Equal(s.Systems, []string{t.System}) || !slices.Equal(s.Benchmarks, []string{string(t.Benchmark)}) || len(s.ParamGrid) == 0):
		return fmt.Sprintf("requires Systems [%s], Benchmarks [%s] and ParamGrid rows taken from the table", t.System, t.Benchmark)
	}
	for _, p := range s.ParamGrid {
		if r.kind == refTable && r.values(t.System, t.Benchmark, p, 0) == nil {
			return fmt.Sprintf("has ParamGrid row %v, which is not a row of table %s", p.Labels(), t.ID)
		}
	}
	return ""
}

// values looks up the paper's reference values for one cell by system,
// benchmark, parameter point and network size; nil when the reference has
// no values for it.
func (r paperRef) values(system string, bench coconut.BenchmarkName, p Params, nodes int) *PaperRefValues {
	switch r.kind {
	case refFigure3, refFigure4:
		c, ok := BestCell(system, bench)
		if !ok || c.Params != p {
			return nil
		}
		if r.kind == refFigure4 {
			return &PaperRefValues{MTPS: c.NetemMTPS}
		}
		return &PaperRefValues{MTPS: c.MTPS, MFLS: c.MFLS}
	case refFigure5:
		v := figure5Failures[system][nodes]
		v.failuresOnly = true
		return &v
	case refTable:
		if system != r.table.System || bench != r.table.Benchmark {
			return nil
		}
		for _, row := range r.table.Rows {
			if row.Params == p {
				v := row.Paper
				return &v
			}
		}
	}
	return nil
}
