package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/faults"
)

// fakeResult fabricates an aggregated result from one synthetic
// repetition, so report rendering is testable without running systems.
func fakeResult(rep coconut.RepetitionResult) coconut.Result {
	return coconut.Aggregate("", "", nil, []coconut.RepetitionResult{rep})
}

func fakeRow(system, bench string, paper *PaperRefValues, rep coconut.RepetitionResult) OutcomeRow {
	return OutcomeRow{
		System:    system,
		Benchmark: bench,
		Nodes:     4,
		Paper:     paper,
		Result:    fakeResult(rep),
	}
}

// fakeGridRows fabricates a measured Figure 3 grid matching the paper's
// shapes: measured = paper with a +5% wobble over a 300 s window, zeros
// stay zero.
func fakeGridRows() []OutcomeRow {
	var rows []OutcomeRow
	for _, cell := range Figure3 {
		rows = append(rows, fakeRow(cell.System, string(cell.Benchmark),
			&PaperRefValues{MTPS: cell.MTPS, MFLS: cell.MFLS},
			coconut.RepetitionResult{TPS: cell.MTPS * 1.05, ReceivedNoT: int(cell.MTPS * 1.05 * 300)}))
	}
	return rows
}

// fakeScaleRow fabricates one Figure 5 cell carrying the reference values
// the engine attaches to it; tps 0 makes the model's cell fail.
func fakeScaleRow(system string, nodes int, tps float64) OutcomeRow {
	return OutcomeRow{System: system, Benchmark: "DoNothing", Nodes: nodes,
		Paper:  paperRef{kind: refFigure5}.values(system, coconut.BenchDoNothing, Params{}, nodes),
		Result: fakeResult(coconut.RepetitionResult{TPS: tps, ReceivedNoT: int(tps * 300)})}
}

// TestWriteReportGolden pins the combined EXPERIMENTS.md rendering: one
// document, stable section ordering, paper-delta columns on figure and
// table sections, fault and contention columns only when those axes are
// active.
func TestWriteReportGolden(t *testing.T) {
	// Paper values under 1 MTPS (Corda OS Balance 0.27, Corda Enterprise
	// SendPayment 0.13) are values, not failures: they render as ratios.
	figure := &Outcome{
		Scenario: Scenario{Name: "figure3", Description: "Figure 3 excerpt", PaperRef: "figure3"},
		Rows: []OutcomeRow{
			fakeRow("Fabric", "DoNothing", &PaperRefValues{MTPS: 1461.05},
				coconut.RepetitionResult{TPS: 1550, ReceivedNoT: 465000, ExpectedNoT: 480000}),
			fakeRow("Corda OS", "KeyValue-Get", &PaperRefValues{MTPS: 0},
				coconut.RepetitionResult{ExpectedNoT: 60}),
			fakeRow("Corda OS", "BankingApp-Balance", &PaperRefValues{MTPS: 0.27},
				coconut.RepetitionResult{ExpectedNoT: 240}),
			fakeRow("Corda Enterprise", "BankingApp-SendPayment", &PaperRefValues{MTPS: 0.13},
				coconut.RepetitionResult{TPS: 8.7, ReceivedNoT: 24, ExpectedNoT: 60}),
		},
	}

	// A cell the paper reports as failed and the model runs is its own
	// verdict, not a blank ratio.
	wan := &Outcome{
		Scenario: Scenario{Name: "figure4", Description: "Figure 4 excerpt", PaperRef: "figure4"},
		Rows: []OutcomeRow{
			fakeRow("Corda Enterprise", "BankingApp-SendPayment", &PaperRefValues{MTPS: 0},
				coconut.RepetitionResult{TPS: 8.89, ReceivedNoT: 24, ExpectedNoT: 60}),
		},
	}

	scale := &Outcome{
		Scenario: Scenario{Name: "figure5", Description: "scalability excerpt", PaperRef: "figure5", Nodes: []int{4, 32}},
		Rows: []OutcomeRow{
			fakeScaleRow("Corda OS", 4, 7.4),
			fakeScaleRow("Corda OS", 32, 0),
			fakeScaleRow("Fabric", 4, 1500),
			fakeScaleRow("Fabric", 32, 0),
		},
	}

	tbl, _ := TableByID("13+14")
	table := &Outcome{
		Scenario: Scenario{Name: "table13+14", Description: tbl.Title, PaperRef: "table:13+14"},
		Rows: []OutcomeRow{
			{System: tbl.System, Benchmark: string(tbl.Benchmark), Nodes: 4,
				Params: tbl.Rows[0].Params,
				Paper:  &tbl.Rows[0].Paper,
				Result: fakeResult(coconut.RepetitionResult{TPS: 810, ReceivedNoT: 240100, ExpectedNoT: 240000})},
		},
	}

	fault := &Outcome{
		Scenario: Scenario{Name: "faults-partition-heal", Description: "chaos excerpt",
			Faults: &FaultSpec{Preset: faults.PresetPartitionHeal}},
		Rows: []OutcomeRow{
			{System: "Fabric", Benchmark: "DoNothing", Nodes: 4, Faults: "partition-heal",
				Result: fakeResult(coconut.RepetitionResult{
					TPS: 120, FLS: 0.8, ReceivedNoT: 3000, ExpectedNoT: 3600,
					Availability: 0.7, Recovered: true, RecoverySec: 0.4,
					GoodputRecovered: true, GoodputRecoverySec: 0.9,
					Windows:  []coconut.WindowStat{{}},
					Overflow: coconut.WindowStat{Received: 12},
				})},
			{System: "Corda OS", Benchmark: "DoNothing", Nodes: 4, Faults: "partition-heal",
				Result: fakeResult(coconut.RepetitionResult{
					TPS: 3, FLS: 2.5, ReceivedNoT: 60, ExpectedNoT: 240,
					Availability: 0.4,
					Windows:      []coconut.WindowStat{{}},
				})},
		},
	}

	chaos := &Outcome{
		Scenario: Scenario{Name: "contention-under-chaos", Description: "composed excerpt",
			Workload: &WorkloadSpec{Mixes: []string{"smallbank"}, Skews: []string{"zipfian"}},
			Faults:   &FaultSpec{Preset: faults.PresetPartitionHeal}},
		Rows: []OutcomeRow{
			{System: "Fabric", Benchmark: "smallbank/zipfian:1.10/keys=64",
				Workload: "smallbank/zipfian:1.10/keys=64", Nodes: 4, Faults: "partition-heal",
				Result: fakeResult(coconut.RepetitionResult{
					TPS: 110, Goodput: 60, AbortRate: 0.45, ReceivedNoT: 2400, ExpectedNoT: 3000,
					Conflicts:    map[string]int{"mvcc-conflict": 1080},
					Availability: 0.75, Recovered: true, RecoverySec: 0.3,
					GoodputRecovered: true, GoodputRecoverySec: 1.1,
					Windows: []coconut.WindowStat{{}, {}},
					Series: coconut.GaugeSeries{
						{5, 3, 1, 4096, 2, 7},
						{11, 8, 2, 8192, 3, 15},
					},
					Stages: []coconut.StageStat{
						{Stage: "submit", MeanSec: 0.001, P50Sec: 0.001, P95Sec: 0.002, Ops: 2400},
						{Stage: "queue", MeanSec: 0.055, P50Sec: 0.050, P95Sec: 0.110, Ops: 2400},
						{Stage: "consensus", MeanSec: 0.012, P50Sec: 0.010, P95Sec: 0.025, Ops: 2400},
						{Stage: "validate", MeanSec: 0.004, P50Sec: 0.003, P95Sec: 0.008, Ops: 2400},
						{Stage: "commit", MeanSec: 0.030, P50Sec: 0.028, P95Sec: 0.060, Ops: 2400},
					},
				})},
		},
	}

	contention := &Outcome{
		Scenario: Scenario{Name: "contention-sweep", Description: "contention excerpt",
			Workload: &WorkloadSpec{Mixes: []string{"smallbank"}, Skews: []string{"zipfian"}}},
		Rows: []OutcomeRow{
			{System: "Quorum", Benchmark: "smallbank/zipfian:1.10/keys=64",
				Workload: "smallbank/zipfian:1.10/keys=64", Nodes: 4,
				Result: fakeResult(coconut.RepetitionResult{
					TPS: 190, Goodput: 150, AbortRate: 0.21, FLS: 1.2,
					ReceivedNoT: 5700, ExpectedNoT: 6000,
					Conflicts: map[string]int{"insufficient-funds": 1200},
				})},
		},
	}

	var sb strings.Builder
	if err := WriteReport(&sb, figure, wan, scale, table, fault, chaos, contention); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "report_golden.md")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("report drifted from golden (UPDATE_GOLDEN=1 regenerates).\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWriteReportSectionShapes(t *testing.T) {
	// Figure sections carry paper-delta columns; zero-zero cells render as
	// "both failed"; fault columns appear only under the fault axis.
	figure := &Outcome{
		Scenario: Scenario{Name: "figure3", PaperRef: "figure3"},
		Rows: []OutcomeRow{
			fakeRow("Fabric", "DoNothing", &PaperRefValues{MTPS: 1461.05},
				coconut.RepetitionResult{TPS: 1550, ReceivedNoT: 465000}),
			fakeRow("Corda OS", "KeyValue-Get", &PaperRefValues{MTPS: 0}, coconut.RepetitionResult{}),
		},
	}
	var sb strings.Builder
	if err := WriteReport(&sb, figure); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"## figure3", "Paper MTPS", "1461.05", "1550.00", "1.06x | agree", "both failed", "Fidelity: "} {
		if !strings.Contains(got, want) {
			t.Fatalf("figure section lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "Availability") || strings.Contains(got, "Goodput") {
		t.Fatalf("healthy figure section must not carry fault/contention columns:\n%s", got)
	}
}

func TestWriteReportStageBreakdown(t *testing.T) {
	// Rows with stage data grow a stage-breakdown table naming the
	// bottleneck; stages a system never traverses render as "—".
	oc := &Outcome{
		Scenario: Scenario{Name: "stages-excerpt"},
		Rows: []OutcomeRow{
			{System: "Quorum", Benchmark: "DoNothing", Nodes: 4,
				Result: fakeResult(coconut.RepetitionResult{
					TPS: 200, ReceivedNoT: 100, ExpectedNoT: 100,
					Stages: []coconut.StageStat{
						{Stage: "submit", MeanSec: 0.001, Ops: 100},
						{Stage: "queue", MeanSec: 0.120, Ops: 100},
						{Stage: "consensus", MeanSec: 0.015, Ops: 100},
						{Stage: "execute", MeanSec: 0.002, Ops: 100},
						{Stage: "commit", MeanSec: 0.030, Ops: 100},
					},
				})},
		},
	}
	var sb strings.Builder
	if err := WriteReport(&sb, oc); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"### Stage breakdown", "| submit | queue | consensus | execute | validate | commit | Bottleneck |",
		"0.120", "queue |", " — |", // validate never traversed
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("stage section lacks %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "| Quorum | DoNothing @4n |") {
		t.Fatalf("stage row label missing:\n%s", got)
	}

	// Without stage data the section must not appear at all.
	var plain strings.Builder
	if err := WriteReport(&plain, &Outcome{Scenario: Scenario{Name: "plain"},
		Rows: []OutcomeRow{fakeRow("Fabric", "DoNothing", nil, coconut.RepetitionResult{TPS: 1})}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "Stage breakdown") {
		t.Fatalf("stage section rendered without stage data:\n%s", plain.String())
	}
}

func TestWriteReportQueueSection(t *testing.T) {
	// Rows carrying a gauge series grow a queue-growth table with one
	// p95/max pair per registered gauge; rows without one stay silent.
	oc := &Outcome{
		Scenario: Scenario{Name: "queues-excerpt", Faults: &FaultSpec{Preset: faults.PresetPartitionHeal}},
		Rows: []OutcomeRow{
			{System: "Quorum", Benchmark: "DoNothing", Nodes: 4, Faults: "partition-heal",
				Result: fakeResult(coconut.RepetitionResult{
					TPS: 200, ReceivedNoT: 100, ExpectedNoT: 100,
					Windows: []coconut.WindowStat{{}, {}, {}},
					Series: coconut.GaugeSeries{
						{4, 10, 0, 0, 0, 3},
						{9, 25, 0, 0, 0, 6},
						{2, 5, 0, 0, 0, 1},
					},
				})},
		},
	}
	var sb strings.Builder
	if err := WriteReport(&sb, oc); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"### Queue growth", "hubInflight p95/max", "mempoolDepth p95/max",
		"| Quorum | DoNothing | 3 |", "9/9", "25/25",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("queue section lacks %q:\n%s", want, got)
		}
	}

	// Without a gauge series the section must not appear at all.
	var plain strings.Builder
	if err := WriteReport(&plain, &Outcome{Scenario: Scenario{Name: "plain"},
		Rows: []OutcomeRow{fakeRow("Fabric", "DoNothing", nil, coconut.RepetitionResult{TPS: 1})}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "Queue growth") {
		t.Fatalf("queue section rendered without gauge data:\n%s", plain.String())
	}
}

func TestWriteReportScaleMarkers(t *testing.T) {
	// Corda OS's 32-node failure is modeled; Fabric's 16-node one comes
	// from a copied threshold and is marked as such; a cell the paper
	// reports failed but the model runs says so.
	scale := &Outcome{
		Scenario: Scenario{Name: "figure5", PaperRef: "figure5", Nodes: []int{4, 16, 32}},
		Rows: []OutcomeRow{
			fakeScaleRow("Fabric", 4, 1500),
			fakeScaleRow("Fabric", 16, 0),
			fakeScaleRow("Fabric", 32, 900),
			fakeScaleRow("Corda OS", 32, 0),
			fakeScaleRow("Quorum", 32, 0),
		},
	}
	var sb strings.Builder
	if err := WriteReport(&sb, scale); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"| 4 nodes |", "| 16 nodes |", "| Fabric | 1500.0 | failed (transcribed) | 900.0 (paper failed) |",
		"| Corda OS | — | — | failed ✓ |", "| Quorum | — | — | failed |"} {
		if !strings.Contains(got, want) {
			t.Fatalf("scale section lacks %q:\n%s", want, got)
		}
	}
}

func TestShapeChecksPassOnPaperShapedGrid(t *testing.T) {
	rows := fakeGridRows()
	for _, c := range ShapeChecks(rows) {
		if c.Status != ShapePass {
			t.Errorf("paper-shaped grid: %s %s", c.Status, c.Name)
		}
	}
}

func TestShapeChecksCatchInvertedOrdering(t *testing.T) {
	rows := fakeGridRows()
	// Corrupt: make Corda OS outrun Fabric on DoNothing.
	for i := range rows {
		if rows[i].System == "Corda OS" && rows[i].Benchmark == "DoNothing" {
			rows[i].Result = fakeResult(coconut.RepetitionResult{TPS: 5000, ReceivedNoT: 1500000})
		}
	}
	failed := false
	for _, c := range ShapeChecks(rows) {
		failed = failed || c.Status == ShapeFail
	}
	if !failed {
		t.Fatal("corrupted grid passed shape checks")
	}
}

func TestShapeChecksSkipWhenCellsMissing(t *testing.T) {
	for _, c := range ShapeChecks(nil) {
		if c.Status != ShapeSkip {
			t.Fatalf("empty grid must skip, not %s: %s", c.Status, c.Name)
		}
	}
}

func TestConflictSummaryOrdersAndTruncates(t *testing.T) {
	r := coconut.Result{Conflicts: map[string]coconut.Stats{
		"a": {Mean: 5}, "b": {Mean: 50}, "c": {Mean: 10}, "d": {Mean: 0},
	}}
	if got := ConflictSummary(r, 2); got != "b:50 c:10" {
		t.Fatalf("ConflictSummary = %q", got)
	}
	if got := ConflictSummary(coconut.Result{}, 3); got != "-" {
		t.Fatalf("empty ConflictSummary = %q", got)
	}
}
