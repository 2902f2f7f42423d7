package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// smokeRecipe is the harness's own end-to-end test input: one system, two
// benchmarks, scale 0.005.
const smokeRecipe = `{
  "recipe_version": 1,
  "name": "smoke",
  "why": "the harness end to end in a few seconds",
  "options": {"scale": 0.005, "sendSeconds": 300, "graceSeconds": 30, "repetitions": 1, "nodes": 4, "time": "virtual", "netem": false},
  "timedRepetitions": 2,
  "scenarios": [{"name": "smoke", "systems": ["Fabric"], "benchmarks": ["KeyValue-Set", "KeyValue-Get"], "bestParams": true, "paperRef": "figure3"}],
  "rows": [2]
}`

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSchema validates a report against the catalogue and the result-line
// contract.
func checkSchema(t *testing.T, rp *Report, defs []metricDef) {
	t.Helper()
	if rp.CellsAttempted != 2 || rp.CellsFailed != 0 || len(rp.Failures) != 0 {
		t.Errorf("cells attempted %d failed %d %v, want 2 and 0", rp.CellsAttempted, rp.CellsFailed, rp.Failures)
	}
	if len(rp.ModelSHA256) != 64 || rp.GOMAXPROCS != 1 {
		t.Errorf("model_sha256 %q, GOMAXPROCS %d", rp.ModelSHA256, rp.GOMAXPROCS)
	}
	if len(rp.Metrics) != len(defs) {
		t.Errorf("report carries %d metrics, catalogue has %d", len(rp.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rp.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if !metricName.MatchString(d.Name) || m.Unit == "" || m.Unit != d.Unit {
			t.Errorf("metric %q unit %q: want a contract-safe name and unit %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}

	var line struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(resultLine(rp)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted != 2 ||
		line.Failed == nil || *line.Failed != 0 || len(line.Metrics) != len(defs) {
		t.Errorf("result line %s", resultLine(rp))
	}
	if strings.Contains(resultLine(rp), "\n") {
		t.Error("result line spans several lines")
	}
}

// TestSmokeEndToEnd runs the whole harness in-process on the smoke recipe,
// in both modes, and validates the output schema.
func TestSmokeEndToEnd(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer()) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed the 16 / 128 contract", len(endToEnd), len(perLayer()))
	}
	cfg := measureConfig{
		Load:   func() (*Recipe, error) { return parseRecipe([]byte(smokeRecipe)) },
		Seed:   42,
		OutDir: t.TempDir(),
	}

	rp, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSchema(t, rp, endToEnd)
	if rp.Trace || rp.Repetitions != 2 {
		t.Errorf("trace %v, %d repetitions, want 2 untraced", rp.Trace, rp.Repetitions)
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			continue // timed by the parent: TestSetupProcesses
		}
		if v := rp.Metrics[d.Name].Value; v <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0 on every workload", d.Name, v)
		}
		if n := len(rp.Samples[d.Name]); n != 2 {
			t.Errorf("%d samples behind %s, want 2", n, d.Name)
		}
	}

	cfg.Trace = true
	traced, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSchema(t, traced, perLayer())
	if traced.ModelSHA256 != rp.ModelSHA256 {
		t.Errorf("model_sha256 differs between modes at one seed: %s vs %s", rp.ModelSHA256, traced.ModelSHA256)
	}
	var cpu, alloc float64
	for _, l := range layers {
		cpu += traced.Metrics[l+".cpu_pct"].Value
		alloc += traced.Metrics[l+".alloc_pct"].Value
	}
	if math.Abs(cpu-100) > 0.1 || math.Abs(alloc-100) > 0.1 {
		t.Errorf("profile shares sum to cpu %v, alloc %v; want 100 +- 0.1", cpu, alloc)
	}
	for _, name := range []string{"coconut.mtps_sum", "coconut.received_tx", "systems.mtps.fabric",
		"experiments.cell_wall_s.fabric", "experiments.sim_speedup", "paper_mtps_err_pct", "clock.handoff_ns"} {
		if traced.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on the smoke recipe", name, traced.Metrics[name].Value)
		}
	}

	// One span per cell and per probe, every parent resolvable.
	ids := map[int]bool{}
	cells, probeSpans := 0, 0
	for _, s := range traced.Spans {
		ids[s.ID] = true
		switch {
		case strings.HasPrefix(s.Name, "cell:"):
			cells++
		case strings.HasPrefix(s.Name, "probe:"):
			probeSpans++
		}
	}
	for _, s := range traced.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %q: parent %d does not resolve", s.Name, s.Parent)
		}
	}
	if cells != 2 || probeSpans != len(probes) {
		t.Errorf("%d cell spans and %d probe spans, want 2 and %d", cells, probeSpans, len(probes))
	}
}

// TestMain lets the test binary stand in for the bench program: the parent
// starts its children through os.Executable, which under go test is this
// binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_AS_PROGRAM") != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSetupProcesses times real set-up processes.
func TestSetupProcesses(t *testing.T) {
	t.Setenv("BENCH_TEST_AS_PROGRAM", "1")
	samples, err := timeSetups(3, "saturation", 42, t.TempDir(), os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("%d set-up samples, want 3", len(samples))
	}
	for _, s := range samples {
		if s <= 0 {
			t.Errorf("set-up sample %v, want > 0", s)
		}
	}
}

// TestFailUnlessSameModel covers the determinism rule the parent applies
// across a workload's two processes.
func TestFailUnlessSameModel(t *testing.T) {
	a := &Report{CellsAttempted: 7, ModelSHA256: strings.Repeat("a", 64)}
	b := &Report{CellsAttempted: 7, ModelSHA256: strings.Repeat("a", 64)}
	if failUnlessSameModel(a, b); a.CellsFailed != 0 || b.CellsFailed != 0 {
		t.Errorf("equal hashes failed %d and %d cells", a.CellsFailed, b.CellsFailed)
	}
	b.ModelSHA256 = strings.Repeat("b", 64)
	if failUnlessSameModel(a, b); a.CellsFailed != 7 || b.CellsFailed != 7 || len(b.Failures) != 1 {
		t.Errorf("differing hashes failed %d and %d cells (%v), want all 7", a.CellsFailed, b.CellsFailed, b.Failures)
	}
	dead := &Report{CellsAttempted: 7, CellsFailed: 7}
	if failUnlessSameModel(dead, b); len(dead.Failures) != 0 {
		t.Errorf("a dead child was failed twice: %v", dead.Failures)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the driver
// reads, in step with the catalogue the program reports against.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if rec, err := loadRecipe(w.Name); err != nil || w.Why != rec.Why {
			t.Errorf("workload %q: why %q does not match its recipe (%v)", w.Name, w.Why, err)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	match := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, catalogue has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the catalogue's %v", kind, d.Name, d.Bound)
			}
		}
	}
	match("end_to_end", file.EndToEnd, endToEnd, true)
	match("per_layer", file.PerLayer, perLayer(), false)
}
