package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"github.com/coconut-bench/coconut/internal/systems"
)

// TestVirtualTimeBitDeterminism is the determinism contract's pin: the
// same registry scenario run twice under the virtual clock at the same
// seed produces byte-identical Outcome JSON. Everything a run measures —
// per-window timelines, latency sums, conflict breakdowns — must
// reproduce exactly, because under AutoVirtual the scheduler order is a
// pure function of the seed. Only Timings (wall-clock accounting) is
// excluded; it measures the host machine, not the simulation.
func TestVirtualTimeBitDeterminism(t *testing.T) {
	sc, err := ScenarioByName("contention-under-chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc.Systems = []string{systems.NameQuorum}
	opts := Options{Scale: 0.004, SendSeconds: 120, GraceSeconds: 60,
		Repetitions: 1, Seed: 42}

	marshal := func() []byte {
		t.Helper()
		oc, err := Run(context.Background(), sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(oc.Timings) != len(oc.Rows) {
			t.Fatalf("timings = %d, want one per row (%d)", len(oc.Timings), len(oc.Rows))
		}
		for _, tm := range oc.Timings {
			if tm.SimSeconds <= 0 {
				t.Fatalf("%s: simulated no time (%+v)", tm.Cell, tm)
			}
		}
		oc.Timings = nil
		enc, err := json.MarshalIndent(oc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		// Locate the first divergent line so the failure is debuggable.
		al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := range al {
			if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("outcome JSON diverged at line %d:\n  run A: %s\n  run B: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("outcome JSON diverged in length: %d vs %d bytes", len(a), len(b))
	}
}

// TestVirtualRunRepeatsAtAnyGOMAXPROCS: a Run is the same run on a host with
// eight Ps as on one. Corda Enterprise's Figure 5 cell at 16 nodes is the
// one that was not: its validate and commit stage means moved between two
// runs of one binary at GOMAXPROCS=8, and its hand-off count moved at the
// default 2, because a second actor could take the token while a fork wave
// of its parallel signing was still registering.
func TestVirtualRunRepeatsAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	sc, err := ScenarioByName("figure5")
	if err != nil {
		t.Fatal(err)
	}
	sc.Systems, sc.Nodes = []string{systems.NameCordaEnt}, []int{16}
	opts := Options{Scale: 0.01, SendSeconds: 300, GraceSeconds: 30,
		Repetitions: 1, Seed: 42}
	run := func() *Outcome {
		t.Helper()
		oc, err := Run(context.Background(), sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(oc.Rows) != 1 || oc.Rows[0].Result.Received.Mean <= 0 {
			t.Fatalf("want one cell that confirmed something, got %+v", oc.Rows)
		}
		for i := range oc.Timings { // the host's, not the run's
			oc.Timings[i].WallSeconds, oc.Timings[i].Speedup = 0, 0
		}
		return oc
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("rows differ between two runs:\n%+v\n%+v", a.Rows[0].Result, b.Rows[0].Result)
	}
	if !reflect.DeepEqual(a.Timings, b.Timings) {
		t.Fatalf("clock counters differ between two runs:\n%+v\n%+v", a.Timings, b.Timings)
	}
}
