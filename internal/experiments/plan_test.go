package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/systems"
)

// rowsJSON runs sc and renders each of its rows as JSON.
func rowsJSON(t *testing.T, sc Scenario, o Options) ([]string, *Outcome) {
	t.Helper()
	out, err := Run(context.Background(), sc, o)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(out.Rows))
	for i, row := range out.Rows {
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = string(b)
	}
	return rows, out
}

// assertRowsMatchSingleBenchmarkRuns: the rows of a six-benchmark scenario,
// where cells share unit runs, equal the rows of six one-benchmark
// scenarios, where each cell runs its own. It returns the six-benchmark
// scenario's outcome.
func assertRowsMatchSingleBenchmarkRuns(t *testing.T, sc Scenario, o Options) *Outcome {
	t.Helper()
	shared, out := rowsJSON(t, sc, o)
	if len(shared) != len(sc.Systems)*len(coconut.AllBenchmarks) {
		t.Fatalf("%d rows, want %d", len(shared), len(sc.Systems)*len(coconut.AllBenchmarks))
	}
	for b, bench := range coconut.AllBenchmarks {
		one := sc
		one.Benchmarks = []string{string(bench)}
		alone, _ := rowsJSON(t, one, o)
		for s, system := range sc.Systems {
			if got, want := shared[s*len(coconut.AllBenchmarks)+b], alone[s]; got != want {
				t.Errorf("%s/%s: the shared run's row differs from the cell run alone:\n%s\n%s", system, bench, got, want)
			}
		}
	}
	return out
}

// TestSharedUnitRunsKeepRows: at an explicit parameter point all six
// members of a system share runs, one per §4.1 unit; at the Figure 3 winners
// only the members whose winners coincide do (Fabric, BitShares and Diem
// each have some that do and some that do not). Either way every row is
// byte-identical to the row of its cell run alone.
func TestSharedUnitRunsKeepRows(t *testing.T) {
	o := fastOptions()
	t.Run("explicit params", func(t *testing.T) {
		for _, system := range AllSystems {
			best, ok := BestCell(system, coconut.BenchDoNothing)
			if !ok {
				t.Fatalf("no Figure 3 cell for %s DoNothing", system)
			}
			p := best.Params
			assertRowsMatchSingleBenchmarkRuns(t, Scenario{Name: "shared", Systems: []string{system}, Params: &p}, o)
		}
	})
	t.Run("best params", func(t *testing.T) {
		sc := Scenario{Name: "shared", BestParams: true,
			Systems: []string{systems.NameFabric, systems.NameBitShares, systems.NameDiem}}
		out := assertRowsMatchSingleBenchmarkRuns(t, sc, o)
		served := make(map[string]int)
		for i, tm := range out.Timings {
			if tm.RunBy > 0 {
				served[out.Rows[i].System]++
			}
		}
		for _, system := range sc.Systems {
			// Three served cells would mean every member shares, as at an
			// explicit point; none would leave nothing shared to check.
			if n := served[system]; n < 1 || n > 2 {
				t.Errorf("%s: %d cells served by another's run, want 1 or 2", system, n)
			}
		}
	})
}

// TestOneRunPerUnit: a six-benchmark scenario at one parameter point runs
// three units, so three cells carry simulated time and clock counters, and
// every other cell names the cell whose run produced its row.
func TestOneRunPerUnit(t *testing.T) {
	p := Params{RL: 200}
	_, out := rowsJSON(t, Scenario{Name: "units", Systems: []string{systems.NameFabric}, Params: &p}, fastOptions())
	wantRunBy := map[coconut.BenchmarkName]int{
		coconut.BenchDoNothing:     0,
		coconut.BenchKeyValueSet:   0,
		coconut.BenchKeyValueGet:   2,
		coconut.BenchCreateAccount: 0,
		coconut.BenchSendPayment:   4,
		coconut.BenchBalance:       4,
	}
	if len(out.Timings) != len(coconut.AllBenchmarks) {
		t.Fatalf("%d timings, want %d", len(out.Timings), len(coconut.AllBenchmarks))
	}
	ran := 0
	for i, tm := range out.Timings {
		bench := coconut.BenchmarkName(out.Rows[i].Benchmark)
		if tm.RunBy != wantRunBy[bench] {
			t.Errorf("%s: RunBy = %d, want %d", tm.Cell, tm.RunBy, wantRunBy[bench])
		}
		if tm.RunBy == 0 {
			ran++
			if tm.SimSeconds <= 0 {
				t.Errorf("%s ran a unit but carries %+v", tm.Cell, tm)
			}
		} else if tm.SimSeconds != 0 || tm.Events != 0 || tm.TimerFires != 0 {
			t.Errorf("%s took its row from cell %d but carries simulated work: %+v", tm.Cell, tm.RunBy, tm)
		}
	}
	if ran != 3 {
		t.Fatalf("%d cells carry simulated seconds, want 3 (one per §4.1 unit)", ran)
	}
}
