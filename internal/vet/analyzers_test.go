package vet_test

import (
	"testing"

	"github.com/coconut-bench/coconut/internal/vet"
	"github.com/coconut-bench/coconut/internal/vet/vettest"
)

// Each suite member must demonstrate at least one caught violation in
// its fixture (acceptance criterion), including the alias-import cases
// for walltime/directio that the retired grep scripts provably missed.

func TestWalltime(t *testing.T) {
	res := vettest.Run(t, vet.Walltime, "walltime")
	if len(res.Findings) < 7 {
		t.Errorf("want >= 7 walltime findings (incl. 3 through the aliased import), got %d", len(res.Findings))
	}
}

func TestDirectIO(t *testing.T) {
	res := vettest.Run(t, vet.DirectIO, "directio")
	if len(res.Findings) < 5 {
		t.Errorf("want >= 5 directio findings (incl. 1 through the aliased import), got %d", len(res.Findings))
	}
}

func TestTelemetry(t *testing.T) {
	res := vettest.Run(t, vet.Telemetry, "telemetry")
	if len(res.Findings) < 4 {
		t.Errorf("want >= 4 telemetry findings (tracer, series, sample, expvar), got %d", len(res.Findings))
	}
}

func TestMapOrder(t *testing.T) {
	res := vettest.Run(t, vet.MapOrder, "maporder")
	if len(res.Findings) < 5 {
		t.Errorf("want >= 5 maporder findings, got %d", len(res.Findings))
	}
}

func TestActorSpawn(t *testing.T) {
	res := vettest.Run(t, vet.ActorSpawn, "actorspawn")
	if len(res.Findings) != 5 {
		t.Errorf("want exactly 5 actorspawn findings (every go statement, announced or not; none for clock.Go), got %d", len(res.Findings))
	}
}

func TestParkLock(t *testing.T) {
	res := vettest.Run(t, vet.ParkLock, "parklock")
	if len(res.Findings) < 6 {
		t.Errorf("want >= 6 parklock findings, got %d", len(res.Findings))
	}
}

func TestGlobalRand(t *testing.T) {
	res := vettest.Run(t, vet.GlobalRand, "globalrand")
	if len(res.Findings) < 5 {
		t.Errorf("want >= 5 globalrand findings, got %d", len(res.Findings))
	}
}
