package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestLayerOfFrame(t *testing.T) {
	cases := map[string]string{
		"github.com/coconut-bench/coconut/internal/clock.goid":                                "clock",
		"github.com/coconut-bench/coconut/internal/clock.(*Mailbox[go.shape.struct {}]).Send": "clock",
		"github.com/coconut-bench/coconut/internal/consensus/bftcore.(*Core).run":             "consensus",
		"github.com/coconut-bench/coconut/internal/consensus.RoundRobin":                      "consensus",
		"github.com/coconut-bench/coconut/internal/systems/fabric.(*Network).deliver":         "systems",
		"github.com/coconut-bench/coconut/internal/coconut.(*Client).Run.func2":               "coconut",
		"github.com/coconut-bench/coconut/internal/trace.(*Tracer).Add":                       "", // not a ledger layer
		"github.com/coconut-bench/coconut/bench.runRepetition":                                "",
		"crypto/internal/fips140/sha256.(*Digest).Sum":                                        "",
		"runtime.mallocgc": "",
		"github.com/coconut-bench/coconut/internal/experiments.Run": "experiments",
	}
	for fn, want := range cases {
		if got := layerOfFrame(fn); got != want {
			t.Errorf("layerOfFrame(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfStackPicksInnermostLayerFrame(t *testing.T) {
	stack := []string{
		"runtime.mallocgc",
		"github.com/coconut-bench/coconut/internal/trace.(*Tracer).Add",
		"github.com/coconut-bench/coconut/internal/network.(*Transport).Send",
		"github.com/coconut-bench/coconut/internal/consensus/raft.(*Node).broadcast",
	}
	if got := layerOfStack(stack); got != "network" {
		t.Errorf("innermost ledger layer = %q, want network", got)
	}
	if got := layerOfStack([]string{"runtime.scanobject", "runtime.gcDrain"}); got != "runtime_other" {
		t.Errorf("stack without an in-module frame = %q, want runtime_other", got)
	}
}

func TestFoldTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	weights, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"crypto": 10e6, "clock": 70e6, "consensus": 30e6, "systems": 40e6,
		"network": 10e6, "runtime_other": 30e6, "wal": 10e6,
	}
	for l, w := range want {
		if weights[l] != w {
			t.Errorf("weight[%s] = %v, want %v", l, weights[l], w)
		}
	}
	if len(weights) != len(want) {
		t.Errorf("folded into %d layers %v, want %d", len(weights), weights, len(want))
	}

	pct := shares(weights)
	var sum float64
	for _, l := range layers {
		sum += pct[l]
	}
	if math.Abs(sum-100) > 0.1 {
		t.Errorf("shares sum to %v, want 100 +- 0.1", sum)
	}
	if pct["clock"] != 35 || pct["systems"] != 20 || pct["faults"] != 0 {
		t.Errorf("shares = %v", pct)
	}
}

func TestFoldTracesRejectsGarbageSample(t *testing.T) {
	_, err := foldTraces(strings.NewReader("-----------+----\n   lots   runtime.main\n"))
	if err == nil {
		t.Fatal("a sample line without a numeric value must be an error")
	}
}

func TestSharesOfEmptyProfile(t *testing.T) {
	for l, v := range shares(map[string]float64{}) {
		if v != 0 {
			t.Errorf("empty profile gives %s = %v", l, v)
		}
	}
}
