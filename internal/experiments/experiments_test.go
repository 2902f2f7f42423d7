package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
)

// fastOptions shrinks the run further for CI-speed tests: paper 300s send
// becomes 0.6s of simulated time at Scale = 1/500, on the auto-advancing
// clock.
func fastOptions() Options {
	return Options{
		Scale:        0.002,
		SendSeconds:  300,
		GraceSeconds: 60,
		Repetitions:  1,
		Seed:         1,
		Time:         "virtual",
	}
}

// runOneCell runs one system x benchmark cell at parameter point p as a
// one-cell scenario and returns its row's result.
func runOneCell(system string, bench coconut.BenchmarkName, p Params, o Options) (coconut.Result, error) {
	sc := Scenario{Systems: []string{system}, Benchmarks: []string{string(bench)}, Params: &p}
	out, err := Run(context.Background(), sc, o)
	if err != nil {
		return coconut.Result{}, err
	}
	return out.Rows[0].Result, nil
}

func TestFigure3TableCoversGrid(t *testing.T) {
	if len(Figure3) != 7*6 {
		t.Fatalf("Figure3 has %d cells, want 42", len(Figure3))
	}
	seen := make(map[string]bool)
	for _, c := range Figure3 {
		key := c.System + "/" + string(c.Benchmark)
		if seen[key] {
			t.Fatalf("duplicate cell %s", key)
		}
		seen[key] = true
	}
	for _, s := range AllSystems {
		for _, b := range coconut.AllBenchmarks {
			if _, ok := BestCell(s, b); !ok {
				t.Fatalf("missing cell %s/%s", s, b)
			}
		}
	}
}

func TestFigure4ReferenceCoversGrid(t *testing.T) {
	// Figure 4 re-runs every Figure 3 configuration, so its reference is the
	// Figure 3 row's NetemMTPS column, attached to all 42 cells.
	sc, err := ScenarioByName("figure4")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{}
	o.fill()
	cells, err := expandCells(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 42 {
		t.Fatalf("figure4 cells = %d, want 42", len(cells))
	}
	for _, c := range cells {
		best, _ := BestCell(c.system, c.bench)
		if c.paper == nil || *c.paper != (PaperRefValues{MTPS: best.NetemMTPS}) {
			t.Fatalf("%s/%s paper ref %+v, want MTPS %v", c.system, c.bench, c.paper, best.NetemMTPS)
		}
	}
}

func TestRunCellFabricDoNothing(t *testing.T) {
	res, err := runOneCell(systems.NameFabric, coconut.BenchDoNothing,
		Params{RL: 1600, MM: 1000}, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.MTPS.Mean < 400 {
		t.Fatalf("Fabric DoNothing MTPS = %.1f, want high throughput (paper 1461)", res.MTPS.Mean)
	}
}

func TestRunCellUnknownSystem(t *testing.T) {
	if _, err := runOneCell("NotAChain", coconut.BenchDoNothing, Params{RL: 100}, fastOptions()); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestRunCellCordaOSReadsFail(t *testing.T) {
	// The paper's sharpest Corda OS finding: KeyValue-Get receives nothing.
	res, err := runOneCell(systems.NameCordaOS, coconut.BenchKeyValueGet,
		Params{RL: 20}, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.MTPS.Mean > 1.0 {
		t.Fatalf("Corda OS KeyValue-Get MTPS = %.2f, paper reports total failure", res.MTPS.Mean)
	}
}

func TestSystemOrderingMatchesPaper(t *testing.T) {
	// DoNothing throughput ordering (Fig. 3 columns): BitShares and Fabric
	// in the hundreds-to-thousands, Quorum below Fabric, Sawtooth and Diem
	// double digits, Corda OS single digits.
	measure := func(system string, opts Options) float64 {
		cell, _ := BestCell(system, coconut.BenchDoNothing)
		res, err := runOneCell(system, coconut.BenchDoNothing, cell.Params, opts)
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		t.Logf("%s DoNothing MTPS = %.2f (paper %.2f)", system, res.MTPS.Mean, cell.MTPS)
		return res.MTPS.Mean
	}
	fabricTPS := measure(systems.NameFabric, fastOptions())
	quorumTPS := measure(systems.NameQuorum, fastOptions())
	// Sawtooth's drain is real-time-limited (~1s per 100-tx batch), so its
	// window must cover several batch validations.
	sawtoothTPS := measure(systems.NameSawtooth, Options{Scale: 0.01, Repetitions: 1, Seed: 1, Time: "virtual"})
	cordaOSTPS := measure(systems.NameCordaOS, fastOptions())

	if fabricTPS <= quorumTPS {
		t.Errorf("Fabric (%.1f) must beat Quorum (%.1f)", fabricTPS, quorumTPS)
	}
	if quorumTPS <= sawtoothTPS {
		t.Errorf("Quorum (%.1f) must beat Sawtooth (%.1f)", quorumTPS, sawtoothTPS)
	}
	if sawtoothTPS <= cordaOSTPS {
		t.Errorf("Sawtooth (%.1f) must beat Corda OS (%.1f)", sawtoothTPS, cordaOSTPS)
	}
}

func TestPaperSecondsConversion(t *testing.T) {
	o := Options{Scale: 0.01}
	if got := o.PaperSeconds(3.0); got != 300 {
		t.Fatalf("PaperSeconds(3) = %v, want 300", got)
	}
}

func TestParamsLabels(t *testing.T) {
	p := Params{RL: 1600, MM: 100, Actions: 50}
	labels := p.Labels()
	if labels["RL"] != "1600" || labels["MM"] != "100" || labels["Actions"] != "50" {
		t.Fatalf("labels = %v", labels)
	}
	if _, ok := labels["BP"]; ok {
		t.Fatal("zero params must not emit labels")
	}
}

func TestScaleCountFloorsAtOne(t *testing.T) {
	if got := (systems.Env{Scale: 0.0001}).Count(100); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestRunFigure3SingleSystem(t *testing.T) {
	sc, err := ScenarioByName("figure3")
	if err != nil {
		t.Fatal(err)
	}
	sc.Systems = []string{systems.NameQuorum}
	outcome, err := Run(context.Background(), sc, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (one per benchmark)", len(outcome.Rows))
	}
	for _, row := range outcome.Rows {
		if row.System != systems.NameQuorum {
			t.Fatalf("row for %s leaked into restricted run", row.System)
		}
		if row.Paper == nil {
			t.Fatalf("figure3 row %s lacks a paper reference", row.Benchmark)
		}
	}
}

func TestRunTableQuorum(t *testing.T) {
	sc, err := ScenarioByName("table15+16")
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := Run(context.Background(), sc, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := TableByID("15+16")
	if len(outcome.Rows) != len(tbl.Rows) {
		t.Fatalf("rows = %d, want %d", len(outcome.Rows), len(tbl.Rows))
	}
	// Row 0 is the liveness-violation cell: zero MTPS in paper and here.
	if outcome.Rows[0].Result.MTPS.Mean > 1 {
		t.Fatalf("livelock row measured %.2f MTPS, want ~0", outcome.Rows[0].Result.MTPS.Mean)
	}
	// Row 1 is the healthy BP=5s cell.
	if outcome.Rows[1].Result.MTPS.Mean <= 1 {
		t.Fatalf("healthy row measured %.2f MTPS, want > 1", outcome.Rows[1].Result.MTPS.Mean)
	}
}

func TestTablesWellFormed(t *testing.T) {
	if len(Tables) != 7 {
		t.Fatalf("Tables = %d, want 7 pairs", len(Tables))
	}
	seen := map[string]bool{}
	for _, tbl := range Tables {
		if seen[tbl.ID] {
			t.Fatalf("duplicate table id %s", tbl.ID)
		}
		seen[tbl.ID] = true
		if len(tbl.Rows) == 0 {
			t.Fatalf("table %s has no rows", tbl.ID)
		}
		if _, ok := BestCell(tbl.System, tbl.Benchmark); !ok {
			t.Fatalf("table %s references unknown cell %s/%s", tbl.ID, tbl.System, tbl.Benchmark)
		}
	}
	if _, ok := TableByID("nope"); ok {
		t.Fatal("TableByID matched a bogus id")
	}
}

func TestNetemOptionAppliesLatency(t *testing.T) {
	o := Options{Scale: 0.01, Netem: true, Seed: 3}
	o.fill()
	m := o.latency()
	stats := network.MeasureLatency(m, 5000)
	// Scaled mu: 12ms x 0.01 = 120us.
	if stats.Mean < 100*time.Microsecond || stats.Mean > 140*time.Microsecond {
		t.Fatalf("netem mean = %v, want ~120us", stats.Mean)
	}
	o.Netem = false
	if d := o.latency().Delay("a", "b"); d != 0 {
		t.Fatalf("latency without netem = %v, want 0", d)
	}
}

// TestExampleScenariosRun keeps the spec files under examples/ runnable:
// each one parses, validates and runs on the virtual clock, and every row
// confirms something.
func TestExampleScenariosRun(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example scenario specs found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := ParseScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(context.Background(), sc, fastOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Rows) == 0 {
				t.Fatal("scenario produced no rows")
			}
			for _, row := range out.Rows {
				if row.Result.Received.Mean <= 0 {
					t.Errorf("%s/%s received nothing", row.System, row.Benchmark)
				}
			}
		})
	}
}
