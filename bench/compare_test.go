package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	tput := metricDef{Name: "tx_per_wall_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, AbsBound: 0.05}
	tau := metricDef{Name: "paper_rank_tau", Better: "higher", AbsBound: 0.02}
	cases := []struct {
		name       string
		d          metricDef
		a, b       float64
		runA, runB []float64
		want       string
	}{
		{"within bound", wall, 10, 10.5, []float64{9.9, 10, 10.1}, []float64{10.4, 10.5, 10.6}, verdictOK},
		{"faster", wall, 10, 8, []float64{9.9, 10, 10.1}, []float64{7.9, 8, 8.1}, verdictOK},
		{"slower than the bound", wall, 10, 11.5, []float64{9.9, 10, 10.1}, []float64{11.4, 11.5, 11.6}, verdictRegressed},
		{"higher is better, dropped", tput, 1000, 850, []float64{990, 1000, 1010}, []float64{840, 850, 860}, verdictRegressed},
		{"higher is better, rose", tput, 1000, 1300, []float64{990, 1000, 1010}, []float64{1290, 1300, 1310}, verdictOK},
		{"wide spreads overlap", wall, 10, 10.5, []float64{9, 10, 11.5}, []float64{9.5, 10.5, 12}, verdictUnresolved},
		{"wide spread but every run better", wall, 10, 7, []float64{9, 10, 11.5}, []float64{6, 7, 8}, verdictOK},
		{"wide spread and every run worse", wall, 10, 14, []float64{9, 10, 11.5}, []float64{13, 14, 15.5}, verdictRegressed},
		{"absolute slack covers a tiny baseline", setup, 0.03, 0.06, []float64{0.03}, []float64{0.06}, verdictOK},
		{"absolute slack exceeded", setup, 0.03, 0.09, []float64{0.03}, []float64{0.09}, verdictRegressed},
		{"tau within 0.02", tau, 0.90, 0.885, nil, nil, verdictOK},
		{"tau fell 0.03", tau, 0.90, 0.87, nil, nil, verdictRegressed},
	}
	for _, tc := range cases {
		if got := judge(tc.d, tc.a, tc.b, tc.runA, tc.runB); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// ledgerWith builds a one-workload ledger around the given wall time and
// model fingerprint.
func ledgerWith(wall float64, sha string, mtps float64) *Ledger {
	e2e := newMetricSet(endToEnd)
	for _, d := range endToEnd {
		e2e.set(d.Name, 1)
	}
	e2e.set("wall_s", wall)
	layer := newMetricSet(perLayer())
	layer.set("coconut.mtps_sum", mtps)
	layer.set("clock.cpu_pct", 60+wall) // host-time metric: free to move
	return &Ledger{Seed: 42, Reports: []*Report{
		{Workload: "saturation", RecipeVersion: 1, Repetitions: 3, CellsAttempted: 7, Metrics: e2e,
			Samples: map[string][]float64{"wall_s": {wall * 0.99, wall, wall * 1.01}}},
		{Workload: "saturation", RecipeVersion: 1, Trace: true, CellsAttempted: 7, ModelSHA256: sha, Metrics: layer},
	}}
}

func TestCompareLedgers(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, l *Ledger) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, l); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", ledgerWith(5, "aaaa", 100))

	var out bytes.Buffer
	bad, err := compareLedgers(&out, base, write("same.json", ledgerWith(5.2, "aaaa", 100)))
	if err != nil || bad {
		t.Fatalf("4%% slower, same model: bad=%v err=%v\n%s", bad, err, out.String())
	}
	if !strings.Contains(out.String(), "wall_s") || strings.Contains(out.String(), "regressed") {
		t.Errorf("report should list wall_s as ok:\n%s", out.String())
	}

	out.Reset()
	bad, err = compareLedgers(&out, base, write("slow.json", ledgerWith(7, "aaaa", 100)))
	if err != nil || !bad || !strings.Contains(out.String(), "regressed") {
		t.Errorf("40%% slower: bad=%v err=%v\n%s", bad, err, out.String())
	}

	out.Reset()
	bad, err = compareLedgers(&out, base, write("model.json", ledgerWith(5, "bbbb", 101)))
	if err != nil || !bad {
		t.Fatalf("moved fingerprint: bad=%v err=%v", bad, err)
	}
	for _, want := range []string{"saturation: model_sha256 aaaa -> bbbb", "saturation: coconut.mtps_sum 100 -> 101"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fingerprint section lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "clock.cpu_pct") {
		t.Errorf("a host-time per-layer metric is not a fingerprint:\n%s", out.String())
	}

	// Unequal repetition counts bias the extreme-value metrics: no verdict.
	out.Reset()
	fewer := ledgerWith(7, "aaaa", 100)
	fewer.Reports[0].Repetitions = 2
	bad, err = compareLedgers(&out, base, write("fewer.json", fewer))
	if err != nil || bad || !strings.Contains(out.String(), "repetitions differ (3 vs 2)") {
		t.Errorf("unequal repetitions: bad=%v err=%v\n%s", bad, err, out.String())
	}

	// A dead child's zero baseline has no percentage to print.
	out.Reset()
	if _, err = compareLedgers(&out, write("zero.json", ledgerWith(0, "aaaa", 100)), base); err != nil ||
		strings.Contains(out.String(), "NaN") || strings.Contains(out.String(), "Inf") || !strings.Contains(out.String(), "n/a") {
		t.Errorf("zero baseline: err=%v\n%s", err, out.String())
	}

	if _, err := compareLedgers(&out, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing ledger must be an error")
	}
}
