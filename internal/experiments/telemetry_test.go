package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
)

// chromeEvent is the subset of the Chrome trace-event schema the
// telemetry tests inspect.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Cat  string `json:"cat"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

// TestTraceAllSystemsDeterministic is the tracing plane's acceptance pin:
// a seeded virtual-time contention-under-chaos run traced at SampleEvery=1
// yields spans from all seven systems' drivers — including network-hop and
// WAL fsync spans — and the exported Chrome trace is byte-identical across
// two runs.
func TestTraceAllSystemsDeterministic(t *testing.T) {
	sc, err := ScenarioByName("contention-under-chaos")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: 0.004, SendSeconds: 120, GraceSeconds: 60,
		Repetitions: 1, Seed: 42}

	export := func() []byte {
		t.Helper()
		// SampleEvery=1 traces every transaction, so span coverage across
		// all seven systems is guaranteed rather than a function of which
		// txids the hash sampler happens to pick at this scale.
		tr := trace.New(trace.Options{SampleEvery: 1})
		o := opts
		o.Trace = tr
		if _, err := Run(context.Background(), sc, o); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() > 0 {
			t.Fatalf("tracer dropped %d spans at cap; raise Cap or shrink the run", tr.Dropped())
		}
		return buf.Bytes()
	}

	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace JSON diverged between seeded runs: %d vs %d bytes", len(a), len(b))
	}

	var events []chromeEvent
	if err := json.Unmarshal(a, &events); err != nil {
		t.Fatalf("trace is not valid Chrome trace-event JSON: %v", err)
	}
	procs := map[string]bool{}
	cats := map[string]bool{}
	names := map[string]bool{}
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs[ev.Args.Name] = true
			}
		case "X":
			cats[ev.Cat] = true
			names[ev.Name] = true
		}
	}
	for _, sys := range FaultScenarioSystems {
		if !procs[sys] {
			t.Errorf("trace has no process for %s (got %v)", sys, keys(procs))
		}
	}
	for _, cat := range []string{"stage", "net", "wal"} {
		if !cats[cat] {
			t.Errorf("trace has no %q spans (cats: %v)", cat, keys(cats))
		}
	}
	if !names["wal:fsync"] {
		t.Error("trace has no wal:fsync spans despite the scenario's batch-fsync WAL")
	}
}

// TestGaugeSeriesMatchesTimeline is the gauge plane's acceptance pin: a
// timeline-bearing run collects one gauge sample per timeline window, with
// nonzero hub-in-flight and mempool-depth peaks.
func TestGaugeSeriesMatchesTimeline(t *testing.T) {
	sc, err := ScenarioByName("contention-under-chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc.Systems = []string{systems.NameFabric, systems.NameCordaOS}
	opts := Options{Scale: 0.004, SendSeconds: 120, GraceSeconds: 60,
		Repetitions: 1, Seed: 42}
	oc, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range oc.Rows {
		if len(row.Result.Series) == 0 {
			t.Fatalf("%s: no gauge series on a timeline-bearing run", row.System)
		}
		for _, rep := range row.Result.Repetitions {
			if rep.Windows == nil {
				continue
			}
			if len(rep.Series) != len(rep.Windows) {
				t.Errorf("%s: %d gauge samples vs %d timeline windows",
					row.System, len(rep.Series), len(rep.Windows))
			}
		}
		if row.Result.Series.Max(coconut.GaugeMempoolDepth) <= 0 {
			t.Errorf("%s: mempool depth gauge never sampled nonzero", row.System)
		}
		// The hub gauge only applies to hub-committing systems; Corda
		// finalises per-flow and legitimately reports zero.
		if row.System == systems.NameFabric &&
			row.Result.Series.Max(coconut.GaugeHubInflight) <= 0 {
			t.Errorf("%s: hub in-flight gauge never sampled nonzero", row.System)
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
