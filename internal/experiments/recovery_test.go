package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestRecoveryCostReplayScaling is the durable recovery plane's acceptance
// pin: on every system, a later crash point means a longer log at the
// crash, so the modeled replay time on restart must strictly increase with
// the crash point. It runs the registry's recovery-cost scenario without
// the snapshot sweep (snapshots truncate the log and deliberately break
// the monotonic relation) under the virtual clock, and doubles as the
// axis's bit-determinism check.
func TestRecoveryCostReplayScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full seven-system recovery sweep")
	}
	sc, err := ScenarioByName("recovery-cost")
	if err != nil {
		t.Fatal(err)
	}
	sc.WAL.SnapshotEvery = []int{0}
	crashPoints := sc.WAL.CrashPoints
	// Scale 0.1 (not the usual 0.01): Corda's flow costs stay in real time,
	// so the send window must be long enough in sim time for the crashed
	// node to keep accumulating log between consecutive crash points.
	opts := Options{Scale: 0.1, SendSeconds: 120, GraceSeconds: 60,
		Repetitions: 1, Seed: 42}

	run := func() (*Outcome, []byte) {
		t.Helper()
		oc, err := Run(context.Background(), sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		oc.Timings = nil
		enc, err := json.MarshalIndent(oc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return oc, enc
	}
	oc, encA := run()

	if want := len(sc.Systems) * len(crashPoints); len(oc.Rows) != want {
		t.Fatalf("rows = %d, want %d (%d systems x %d crash points)", len(oc.Rows), want, len(sc.Systems), len(crashPoints))
	}
	for i := 0; i < len(oc.Rows); i += len(crashPoints) {
		system := oc.Rows[i].System
		prev := 0.0
		for j := 0; j < len(crashPoints); j++ {
			row := oc.Rows[i+j]
			if row.System != system {
				t.Fatalf("row %d: system %s inside %s's block — expansion order broke", i+j, row.System, system)
			}
			r := row.Result
			if r.ReplaySec.N == 0 {
				t.Fatalf("%s %s: no WAL metrics collected", system, row.WAL)
			}
			replay := r.ReplaySec.Mean
			if replay <= prev {
				t.Errorf("%s: replay at crash point %.2f = %.6fs, not above the %.6fs of the previous point — replay cost must scale with log length",
					system, crashPoints[j], replay, prev)
			}
			if r.ReplayedRecords.Mean <= 0 {
				t.Errorf("%s %s: restart replayed no records", system, row.WAL)
			}
			if r.LogBytes.Mean <= 0 {
				t.Errorf("%s %s: live log is empty", system, row.WAL)
			}
			if row.Faults != "wal-crash" {
				t.Errorf("%s %s: fault label %q, want wal-crash", system, row.WAL, row.Faults)
			}
			prev = replay
		}
	}

	_, encB := run()
	if !bytes.Equal(encA, encB) {
		al, bl := bytes.Split(encA, []byte("\n")), bytes.Split(encB, []byte("\n"))
		for i := range al {
			if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("outcome JSON diverged at line %d:\n  run A: %s\n  run B: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("outcome JSON diverged in length: %d vs %d bytes", len(encA), len(encB))
	}
}

// TestWALScenarioValidation pins the WAL axis's validation errors: the
// spec must reject malformed fsync policies, crash points outside the
// window, corruption without a crash, and a crash-point sweep colliding
// with an explicit fault schedule.
func TestWALScenarioValidation(t *testing.T) {
	base := func() Scenario {
		return Scenario{Name: "wal-test", WAL: &WALSpec{Fsync: "always"}}
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"unknown fsync", func(s *Scenario) { s.WAL.Fsync = "sometimes" }},
		{"batch knobs without batch fsync", func(s *Scenario) { s.WAL.BatchRecords = 8 }},
		{"bad batch interval", func(s *Scenario) { s.WAL.Fsync = "batch"; s.WAL.BatchInterval = "soon" }},
		{"negative snapshot interval", func(s *Scenario) { s.WAL.SnapshotEvery = []int{-1} }},
		{"crash point at zero", func(s *Scenario) { s.WAL.CrashPoints = []float64{0} }},
		{"crash point past restart", func(s *Scenario) { s.WAL.CrashPoints = []float64{0.9}; s.WAL.RestartPoint = 0.8 }},
		{"restart point past one", func(s *Scenario) { s.WAL.RestartPoint = 1.5 }},
		{"unknown corruption", func(s *Scenario) { s.WAL.CrashPoints = []float64{0.5}; s.WAL.Corruption = "bitrot" }},
		{"corruption without crash", func(s *Scenario) { s.WAL.Corruption = "torn-write" }},
		{"crash points with explicit faults", func(s *Scenario) {
			s.WAL.CrashPoints = []float64{0.5}
			s.Faults = &FaultSpec{Preset: "crash-minority"}
		}},
	}
	for _, tc := range cases {
		sc := base()
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid WAL axis", tc.name)
		}
	}

	good := base()
	good.Benchmarks = []string{"DoNothing"} // crash points reject read benchmarks
	good.WAL.SnapshotEvery = []int{0, 64}
	good.WAL.CrashPoints = []float64{0.45, 0.6}
	good.WAL.RestartPoint = 0.9
	good.WAL.Corruption = "corrupt-record"
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected a sane WAL axis: %v", err)
	}

	// The WAL axis round-trips through strict JSON like every other axis.
	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.WAL == nil || parsed.WAL.Corruption != "corrupt-record" || len(parsed.WAL.CrashPoints) != 2 {
		t.Fatalf("WAL axis lost in round trip: %+v", parsed.WAL)
	}
}
