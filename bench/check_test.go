package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
)

func stat(v float64) coconut.Stats { return coconut.Stats{Mean: v, N: 1} }

// goodRow is a row that holds every invariant.
func goodRow() experiments.OutcomeRow {
	return experiments.OutcomeRow{
		System: "Fabric", Benchmark: "DoNothing", Nodes: 4,
		Paper: &experiments.PaperRefValues{MTPS: 1461.05},
		Result: coconut.Result{
			Expected: stat(1000), Received: stat(900), Valid: stat(880),
			MTPS: stat(1400), MFLS: stat(0.30),
			Stages: []coconut.StageResult{
				{Stage: "queue", Mean: stat(0.10), Ops: stat(900)},
				{Stage: "consensus", Mean: stat(0.15), Ops: stat(900)},
				{Stage: "commit", Mean: stat(0.05), Ops: stat(900)},
			},
		},
	}
}

func TestCheckInvariants(t *testing.T) {
	const window = 3.6 // 300 paper-seconds at scale 0.012
	cases := []struct {
		name   string
		mutate func(*experiments.OutcomeRow)
		want   string // substring of the failure, "" for a pass
	}{
		{"holds all", func(*experiments.OutcomeRow) {}, ""},
		{"received > expected", func(r *experiments.OutcomeRow) { r.Result.Received = stat(1001) }, "received 1001 > expected 1000"},
		{"valid > received", func(r *experiments.OutcomeRow) { r.Result.Valid = stat(901) }, "valid 901 > received 900"},
		{"stage means off MFLS", func(r *experiments.OutcomeRow) { r.Result.MFLS = stat(0.31) }, "stage means sum"},
		{"stage means within 1e-6", func(r *experiments.OutcomeRow) { r.Result.MFLS = stat(0.30 * (1 + 5e-7)) }, ""},
		{"no stages recorded", func(r *experiments.OutcomeRow) { r.Result.Stages = nil; r.Result.MFLS = stat(9) }, ""},
		{"paper cell confirms nothing", func(r *experiments.OutcomeRow) {
			r.Result.Received, r.Result.Valid = stat(0), stat(0)
		}, "no transaction confirmed"},
		{"paper predicts under 10 confirmations", func(r *experiments.OutcomeRow) {
			r.Paper.MTPS = 1.12 // 4 confirmations in the window
			r.Result.Received, r.Result.Valid = stat(0), stat(0)
		}, ""},
		{"paper reports the cell failed", func(r *experiments.OutcomeRow) {
			r.Paper.MTPS = 0
			r.Result.Received, r.Result.Valid = stat(0), stat(0)
		}, ""},
		{"no paper reference", func(r *experiments.OutcomeRow) {
			r.Paper = nil
			r.Result.Received, r.Result.Valid = stat(0), stat(0)
		}, ""},
		{"crash cell replays nothing", func(r *experiments.OutcomeRow) {
			r.Faults, r.WAL = "wal-crash", "fsync=always/crash=0.45"
			r.Result.ReplayedRecords = stat(0)
		}, "replayed no WAL records"},
		{"crash cell replays", func(r *experiments.OutcomeRow) {
			r.Faults, r.WAL = "wal-crash", "fsync=always/crash=0.45"
			r.Result.ReplayedRecords = stat(12)
		}, ""},
		{"crash just after a snapshot", func(r *experiments.OutcomeRow) {
			r.Faults, r.WAL = "wal-crash", "fsync=always/snap=64/crash=0.60"
			r.Result.ReplayedRecords = stat(0)
		}, ""},
	}
	for _, tc := range cases {
		row := goodRow()
		tc.mutate(&row)
		got := checkInvariants(row, window)
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: checkInvariants = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// repOf builds a repetition from rows the way runRepetition does.
func repOf(t *testing.T, rows ...experiments.OutcomeRow) *repetition {
	t.Helper()
	rep := &repetition{}
	for _, row := range rows {
		data, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		rep.Cells = append(rep.Cells, cellRun{Scenario: "s", Label: row.System, Row: row, JSON: data})
	}
	return rep
}

func TestCheckCellsDeterminism(t *testing.T) {
	a, b := goodRow(), goodRow()
	b.System = "Quorum"
	drift := b
	drift.Result.MTPS = stat(1400.0000001)

	same := checkCells([]*repetition{repOf(t, a, b), repOf(t, a, b), repOf(t, a, b), repOf(t, a, b)}, 3.6)
	if same[0] != "" || same[1] != "" {
		t.Errorf("four identical repetitions failed: %q", same)
	}

	got := checkCells([]*repetition{repOf(t, a, b), repOf(t, a, b), repOf(t, a, drift)}, 3.6)
	if got[0] != "" {
		t.Errorf("cell 0 repeats exactly but failed: %q", got[0])
	}
	if !strings.Contains(got[1], "differs between repetition 1 and 3") {
		t.Errorf("cell 1 drifts in repetition 3, got %q", got[1])
	}

	short := checkCells([]*repetition{repOf(t, a, b), repOf(t, a)}, 3.6)
	if short[1] == "" {
		t.Error("a repetition missing the cell must fail it")
	}

	if m1, m2 := modelSHA256(repOf(t, a, b)), modelSHA256(repOf(t, a, drift)); m1 == m2 || len(m1) != 64 {
		t.Errorf("model_sha256 %q vs %q: want distinct 64-hex digests", m1, m2)
	}
}

func paperRow(system, bench string, measured, paper float64) experiments.OutcomeRow {
	return experiments.OutcomeRow{System: system, Benchmark: bench,
		Paper: &experiments.PaperRefValues{MTPS: paper}, Result: coconut.Result{MTPS: stat(measured)}}
}

func TestMedianAPE(t *testing.T) {
	rows := []experiments.OutcomeRow{
		paperRow("a", "b1", 110, 100), // 10 %
		paperRow("b", "b1", 50, 100),  // 50 %
		paperRow("c", "b1", 97, 100),  // 3 %
		paperRow("d", "b1", 120, 100), // 20 %
		paperRow("e", "b1", 5, 0),     // the paper reports a failed cell: skipped
		{System: "f", Result: coconut.Result{MTPS: stat(1)}},
	}
	got, ok := medianAPE(rows)
	if !ok || math.Abs(got-15) > 1e-9 { // median of {3, 10, 20, 50}
		t.Errorf("medianAPE = %v, %v; want 15", got, ok)
	}
	if _, ok := medianAPE(rows[4:]); ok {
		t.Error("no row with a positive reference: want ok = false")
	}
}

func TestKendallTau(t *testing.T) {
	cases := []struct {
		name string
		x, y []float64
		want float64
	}{
		{"identical order", []float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{"reversed", []float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}, -1},
		// pairs: (1,2)c (1,3)c (1,4)c (2,3)d (2,4)c (3,4)c -> (5-1)/6
		{"one swap", []float64{1, 2, 3, 4}, []float64{1, 3, 2, 4}, 4.0 / 6},
		// x ties (1,2); 2 concordant of 3 pairs -> 2/sqrt(2*3)
		{"tie in x", []float64{1, 1, 2}, []float64{1, 2, 3}, 2 / math.Sqrt(6)},
		{"constant series", []float64{5, 5, 5}, []float64{1, 2, 3}, 0},
	}
	for _, tc := range cases {
		if got := kendallTau(tc.x, tc.y); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: tau = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPaperRankTauMeansOverBenchmarks(t *testing.T) {
	rows := []experiments.OutcomeRow{
		paperRow("a", "b1", 1, 10), paperRow("b", "b1", 2, 20), paperRow("c", "b1", 3, 30), // tau 1
		paperRow("a", "b2", 3, 10), paperRow("b", "b2", 2, 20), paperRow("c", "b2", 1, 30), // tau -1
		paperRow("a", "b3", 1, 10), paperRow("b", "b3", 3, 20), paperRow("c", "b3", 2, 30), // tau 1/3
	}
	got, ok := paperRankTau(rows)
	if want := (1 - 1 + 1.0/3) / 3; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("paperRankTau = %v, %v; want %v", got, ok, want)
	}
	if _, ok := paperRankTau([]experiments.OutcomeRow{{System: "a"}}); ok {
		t.Error("rows without references: want ok = false")
	}
}
