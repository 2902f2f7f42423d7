package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/systems"
)

// fullScenario exercises every serializable axis, including an inline
// fault schedule and a workload spec.
func fullScenario() Scenario {
	return Scenario{
		Name:        "kitchen-sink",
		Description: "every axis at once",
		Systems:     []string{systems.NameFabric, systems.NameQuorum},
		Workload:    &WorkloadSpec{Mixes: []string{"smallbank", "ycsb-a"}, Skews: []string{"zipfian:1.30", "hotspot"}, Keys: 128},
		Rate:        400,
		Arrival:     "poisson",
		Nodes:       []int{4, 8},
		Netem:       true,
		Threads:     2,
		Faults: &FaultSpec{Schedule: &faults.Schedule{Events: []faults.Event{
			{At: 90 * time.Second, Kind: faults.Partition, Group: []int{3}},
			{At: 180 * time.Second, Kind: faults.Heal},
			{At: 200 * time.Second, Kind: faults.SlowNode, Node: 1, Extra: 2 * time.Second, Loss: 0.05},
		}}},
		Repetitions: 2,
		Seed:        7,
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	in := fullScenario()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
}

func TestScenarioJSONRoundTripsEveryRegistryEntry(t *testing.T) {
	for _, sc := range Registry() {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		out, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, out) {
			t.Fatalf("%s round trip diverged:\n in: %+v\nout: %+v", sc.Name, sc, out)
		}
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ParseScenario([]byte(`{"name":"x","sistems":["Fabric"]}`)); err == nil {
		t.Fatal("typo'd field accepted")
	}
}

// TestParseScenarioRejectsTime: a scenario no longer names a clock. A spec
// that still carries "time", the removed "real" or the one "virtual", is an
// error naming the field, not a panic and not a run on some other clock.
func TestParseScenarioRejectsTime(t *testing.T) {
	for _, v := range []string{"real", "virtual"} {
		_, err := ParseScenario([]byte(`{"name":"x","systems":["Fabric"],"time":"` + v + `"}`))
		if err == nil || !strings.Contains(err.Error(), `"time"`) {
			t.Fatalf("time %q: err = %v, want an unknown-field error naming \"time\"", v, err)
		}
	}
}

func TestScenarioValidationRejectsConflicts(t *testing.T) {
	type conflict struct {
		name    string
		sc      Scenario
		wantErr string
	}
	cases := []conflict{
		{
			name:    "unknown system",
			sc:      Scenario{Systems: []string{"NotAChain"}},
			wantErr: "unknown system \"NotAChain\"",
		},
		{
			name:    "unknown benchmark",
			sc:      Scenario{Benchmarks: []string{"Nope"}},
			wantErr: "unknown benchmark \"Nope\"",
		},
		{
			name:    "benchmarks and workload",
			sc:      Scenario{Benchmarks: []string{"DoNothing"}, Workload: &WorkloadSpec{}},
			wantErr: "Benchmarks and Workload are mutually exclusive",
		},
		{
			name:    "workload and best params",
			sc:      Scenario{Workload: &WorkloadSpec{}, BestParams: true},
			wantErr: "BestParams and Workload conflict",
		},
		{
			name:    "workload and params",
			sc:      Scenario{Workload: &WorkloadSpec{}, Params: &Params{MM: 100}},
			wantErr: "Params/ParamGrid and Workload conflict",
		},
		{
			name:    "unknown mix",
			sc:      Scenario{Workload: &WorkloadSpec{Mixes: []string{"nope"}}},
			wantErr: "bad workload mix",
		},
		{
			name:    "unknown skew",
			sc:      Scenario{Workload: &WorkloadSpec{Skews: []string{"nope"}}},
			wantErr: "bad workload skew",
		},
		{
			name:    "best params and explicit params",
			sc:      Scenario{BestParams: true, Params: &Params{RL: 100}},
			wantErr: "BestParams and Params/ParamGrid conflict",
		},
		{
			name:    "params and grid",
			sc:      Scenario{Params: &Params{MM: 1}, ParamGrid: []Params{{MM: 2}}},
			wantErr: "Params and ParamGrid conflict",
		},
		{
			name:    "rate and best params",
			sc:      Scenario{Rate: 100, BestParams: true},
			wantErr: "Rate and BestParams conflict",
		},
		{
			name:    "rate and params rate",
			sc:      Scenario{Rate: 100, Params: &Params{RL: 200}},
			wantErr: "Rate 100 and Params.RL 200 conflict",
		},
		{
			name:    "bad arrival",
			sc:      Scenario{Arrival: "chaotic"},
			wantErr: "bad arrival",
		},
		{
			name:    "one-node network",
			sc:      Scenario{Nodes: []int{1}},
			wantErr: "below the 2-node minimum",
		},
		{
			name:    "fault preset and schedule",
			sc:      Scenario{Faults: &FaultSpec{Preset: "partition-heal", Schedule: &faults.Schedule{}}},
			wantErr: "Faults.Preset and Faults.Schedule conflict",
		},
		{
			name:    "empty fault spec",
			sc:      Scenario{Faults: &FaultSpec{}},
			wantErr: "names no preset and inlines no schedule",
		},
		{
			name:    "unknown fault preset",
			sc:      Scenario{Faults: &FaultSpec{Preset: "meteor-strike"}},
			wantErr: "unknown fault preset",
		},
		{
			name:    "empty inline schedule",
			sc:      Scenario{Faults: &FaultSpec{Schedule: &faults.Schedule{}}},
			wantErr: "no events",
		},
		{
			name: "bad inline loss",
			sc: Scenario{Faults: &FaultSpec{Schedule: &faults.Schedule{Events: []faults.Event{
				{At: time.Second, Kind: faults.DegradeLink, Loss: 1.5},
			}}}},
			wantErr: "loss 1.50 outside [0, 1)",
		},
		{
			name:    "unknown paper ref",
			sc:      Scenario{PaperRef: "figure9"},
			wantErr: "unknown PaperRef",
		},
		{
			name:    "unknown paper table",
			sc:      Scenario{PaperRef: "table:99"},
			wantErr: "unknown paper table",
		},
		{
			name:    "paper ref and workload",
			sc:      Scenario{PaperRef: "figure3", Workload: &WorkloadSpec{}},
			wantErr: "no contention reference values",
		},
		{
			name:    "scalability ref and workload",
			sc:      Scenario{PaperRef: "figure5", Workload: &WorkloadSpec{}},
			wantErr: "no contention reference values",
		},
		{
			name: "figure ref without best params",
			sc: Scenario{Systems: []string{systems.NameFabric}, Benchmarks: []string{"DoNothing"},
				Params: &Params{RL: 1600, MM: 1000}, PaperRef: "figure3"},
			wantErr: "requires BestParams",
		},
		{
			name:    "figure4 without netem",
			sc:      Scenario{BestParams: true, PaperRef: "figure4"},
			wantErr: "requires Netem",
		},
		{
			name:    "figure3 under netem",
			sc:      Scenario{BestParams: true, Netem: true, PaperRef: "figure3"},
			wantErr: "forbids Netem",
		},
		{
			name:    "figure5 without nodes",
			sc:      Scenario{Benchmarks: []string{"DoNothing"}, BestParams: true, Netem: true, PaperRef: "figure5"},
			wantErr: "requires Nodes, Netem and Benchmarks [DoNothing]",
		},
		{
			name:    "figure5 without netem",
			sc:      Scenario{Benchmarks: []string{"DoNothing"}, BestParams: true, Nodes: []int{4, 8}, PaperRef: "figure5"},
			wantErr: "requires Nodes, Netem and Benchmarks [DoNothing]",
		},
		{
			name:    "figure5 beyond DoNothing",
			sc:      Scenario{BestParams: true, Netem: true, Nodes: []int{4, 8}, PaperRef: "figure5"},
			wantErr: "requires Nodes, Netem and Benchmarks [DoNothing]",
		},
		{
			name:    "table ref on every system",
			sc:      Scenario{BestParams: true, PaperRef: "table:13+14"},
			wantErr: "requires Systems [Fabric], Benchmarks [BankingApp-SendPayment] and ParamGrid rows",
		},
		{
			name: "table ref without a grid",
			sc: Scenario{Systems: []string{systems.NameFabric}, Benchmarks: []string{"BankingApp-SendPayment"},
				BestParams: true, PaperRef: "table:13+14"},
			wantErr: "and ParamGrid rows taken from the table",
		},
		{
			name: "table ref with a row the table lacks",
			sc: Scenario{Systems: []string{systems.NameFabric}, Benchmarks: []string{"BankingApp-SendPayment"},
				ParamGrid: []Params{{RL: 800, MM: 100}, {RL: 400, MM: 100}}, PaperRef: "table:13+14"},
			wantErr: "not a row of table 13+14",
		},
	}
	// A chaos cell runs only the benchmark under test, so a read benchmark
	// there would read keys its write phase never wrote.
	for _, b := range []string{"KeyValue-Get", "BankingApp-SendPayment", "BankingApp-Balance"} {
		cases = append(cases,
			conflict{
				name:    b + " under a fault preset",
				sc:      Scenario{Benchmarks: []string{"DoNothing", b}, Faults: &FaultSpec{Preset: faults.PresetPartitionHeal}},
				wantErr: "Faults and Benchmarks conflict",
			},
			conflict{
				name:    b + " under WAL crash points",
				sc:      Scenario{Benchmarks: []string{b}, WAL: &WALSpec{CrashPoints: []float64{0.5}}},
				wantErr: "WAL.CrashPoints and Benchmarks conflict",
			})
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: validation passed, want error containing %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestScenarioValidationAcceptsWritesUnderChaos: benchmarks that read
// nothing they did not write themselves run under either chaos axis.
func TestScenarioValidationAcceptsWritesUnderChaos(t *testing.T) {
	for _, b := range []string{"DoNothing", "KeyValue-Set", "BankingApp-CreateAccount"} {
		for _, sc := range []Scenario{
			{Benchmarks: []string{b}, Faults: &FaultSpec{Preset: faults.PresetPartitionHeal}},
			{Benchmarks: []string{b}, WAL: &WALSpec{CrashPoints: []float64{0.5}}},
		} {
			if err := sc.Validate(); err != nil {
				t.Errorf("%s: %v", b, err)
			}
		}
	}
}

func TestRegistryScenariosValidate(t *testing.T) {
	seen := make(map[string]bool)
	for _, sc := range Registry() {
		if sc.Name == "" {
			t.Fatal("registry scenario without a name")
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %s", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Description == "" {
			t.Errorf("%s: no description", sc.Name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
	for _, want := range []string{"figure3", "figure4", "figure5", "contention-grid",
		"contention-under-chaos", "faults-crash-minority", "faults-partition-heal",
		"faults-degraded-wan", "table7+8", "table13+14", "table19+20"} {
		if !seen[want] {
			t.Errorf("registry lacks %s", want)
		}
	}
	if _, err := ScenarioByName("nope"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("ScenarioByName miss must list registered names, got %v", err)
	}
}

func TestScenarioExpansionOrderIsDeterministic(t *testing.T) {
	o := Options{}
	o.fill()

	// Contention scenarios expand workload-major, systems in declared
	// order — regardless of how the caller ordered or shuffled Systems,
	// expansion follows the spec, never map iteration.
	sc := NewContentionScenario([]string{"write", "smallbank"}, []string{"zipfian", "sequential"}, 0)
	sc.Systems = []string{systems.NameQuorum, systems.NameFabric}
	var labels []string
	for i := 0; i < 3; i++ {
		cells, err := expandCells(sc, o)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(cells))
		for i, c := range cells {
			got[i] = c.label()
		}
		if labels == nil {
			labels = got
		} else if !reflect.DeepEqual(labels, got) {
			t.Fatalf("expansion order changed between calls:\n%v\n%v", labels, got)
		}
	}
	want := []string{
		"Quorum/write/zipfian:1.10/keys=64",
		"Fabric/write/zipfian:1.10/keys=64",
		"Quorum/write/sequential/keys=64",
		"Fabric/write/sequential/keys=64",
		"Quorum/smallbank/zipfian:1.10/keys=64",
		"Fabric/smallbank/zipfian:1.10/keys=64",
		"Quorum/smallbank/sequential/keys=64",
		"Fabric/smallbank/sequential/keys=64",
	}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("contention expansion order:\n got %v\nwant %v", labels, want)
	}

	// Paper scenarios expand systems-major in paper order with node counts
	// innermost (the Figure 5 layout).
	fig5, err := ScenarioByName("figure5")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := expandCells(fig5, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(AllSystems)*len(Figure5Nodes) {
		t.Fatalf("figure5 cells = %d, want %d", len(cells), len(AllSystems)*len(Figure5Nodes))
	}
	if cells[0].system != AllSystems[0] || cells[0].nodes != 4 || cells[1].nodes != 8 {
		t.Fatalf("figure5 expansion order wrong: %v/%d then %v/%d",
			cells[0].system, cells[0].nodes, cells[1].system, cells[1].nodes)
	}
	// Paper failure markers ride along.
	for _, c := range cells {
		if c.system == systems.NameFabric && c.nodes == 16 && (c.paper == nil || !c.paper.Failed) {
			t.Fatal("Fabric@16 must carry the paper-failed marker")
		}
	}
}

func TestScenarioExpansionAttachesPaperRefs(t *testing.T) {
	o := Options{}
	o.fill()

	fig3, err := ScenarioByName("figure3")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := expandCells(fig3, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 42 {
		t.Fatalf("figure3 cells = %d, want 42", len(cells))
	}
	for _, c := range cells {
		best, _ := BestCell(c.system, c.bench)
		if c.params != best.Params {
			t.Fatalf("%s/%s params %+v, want best %+v", c.system, c.bench, c.params, best.Params)
		}
		if c.paper == nil || c.paper.MTPS != best.MTPS {
			t.Fatalf("%s/%s paper ref %+v, want MTPS %v", c.system, c.bench, c.paper, best.MTPS)
		}
	}

	tblSc, err := ScenarioByName("table13+14")
	if err != nil {
		t.Fatal(err)
	}
	cells, err = expandCells(tblSc, o)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := TableByID("13+14")
	if len(cells) != len(tbl.Rows) {
		t.Fatalf("table cells = %d, want %d", len(cells), len(tbl.Rows))
	}
	for i, c := range cells {
		if c.paper == nil || *c.paper != tbl.Rows[i].Paper {
			t.Fatalf("row %d paper ref %+v, want %+v", i, c.paper, tbl.Rows[i])
		}
	}
}
