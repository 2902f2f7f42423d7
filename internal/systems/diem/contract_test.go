package diem_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/diem"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// build builds Diem on a test env at its Figure 3 cell for bench: 150 ms
// rounds, a 650 ms validation stall every second, a 48-deep mempool.
func build(t *testing.T, bench coconut.BenchmarkName) (*diem.Network, systems.Env) {
	t.Helper()
	cell, ok := experiments.BestCell(systems.NameDiem, bench)
	if !ok {
		t.Fatalf("no Figure 3 cell for Diem %s", bench)
	}
	env := systemstest.Env(t)
	return diem.New(env, cell.Params), env
}

// startBest starts Diem at its Figure 3 cell for bench, with a collector
// for client-1.
func startBest(t *testing.T, bench coconut.BenchmarkName) (*diem.Network, *systemstest.Collector) {
	t.Helper()
	n, env := build(t, bench)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	return n, col
}

func TestNameAndNodeCount(t *testing.T) {
	n, _ := build(t, coconut.BenchDoNothing)
	if n.Name() != systems.NameDiem || n.NodeCount() != 4 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.NodeCount())
	}
}

func TestCommitsEndToEnd(t *testing.T) {
	n, col := startBest(t, coconut.BenchKeyValueSet)
	for i := 0; i < 5; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("k%d", i), "v")
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	events := col.Wait(t, 5, 15*time.Second)
	for _, e := range events {
		if !e.Committed || !e.ValidOK {
			t.Fatalf("event = %+v", e)
		}
	}
	for i := 0; i < 4; i++ {
		for k := 0; k < 5; k++ {
			if _, ok := n.WorldState(i).Get(statestore.Key{Name: fmt.Sprintf("k%d", k)}); !ok {
				t.Fatalf("validator %d missing k%d", i, k)
			}
		}
	}
}

// TestAdmissionRejectsWhenMempoolFull offers one validator more than its
// mempool holds in one instant, before any round can drain it.
func TestAdmissionRejectsWhenMempoolFull(t *testing.T) {
	n, _ := startBest(t, coconut.BenchDoNothing)
	rejected := 0
	for i := 0; i < 100; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); errors.Is(err, mempool.ErrQueueFull) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("full mempool never rejected")
	}
	_, r := n.PoolStats()
	if r == 0 {
		t.Fatal("pool stats recorded no rejections")
	}
}

func TestLedgersConverge(t *testing.T) {
	n, col := startBest(t, coconut.BenchDoNothing)
	for i := 0; i < 8; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 8, 15*time.Second)
	for i := 0; i < n.NodeCount(); i++ {
		if err := n.Ledger(i).Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitAfterStop(t *testing.T) {
	n, _ := build(t, coconut.BenchDoNothing)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	tx := chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}
