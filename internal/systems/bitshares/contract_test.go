package bitshares_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/bitshares"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// build builds BitShares on a test env at its Figure 3 cell for bench.
func build(t *testing.T, bench coconut.BenchmarkName) (*bitshares.Network, systems.Env) {
	t.Helper()
	cell, ok := experiments.BestCell(systems.NameBitShares, bench)
	if !ok {
		t.Fatalf("no Figure 3 cell for BitShares %s", bench)
	}
	env := systemstest.Env(t)
	return bitshares.New(env, cell.Params), env
}

// startBest starts BitShares at its Figure 3 cell for bench, with a
// collector for client-1.
func startBest(t *testing.T, bench coconut.BenchmarkName) (*bitshares.Network, *systemstest.Collector) {
	t.Helper()
	n, env := build(t, bench)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	return n, col
}

func TestNameAndTopology(t *testing.T) {
	n, _ := build(t, coconut.BenchDoNothing)
	if n.Name() != systems.NameBitShares || n.NodeCount() != 4 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.NodeCount())
	}
}

func TestSingleOpCommits(t *testing.T) {
	n, col := startBest(t, coconut.BenchKeyValueSet)
	tx := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	events := col.Wait(t, 1, 10*time.Second)
	if events[0].OpCount != 1 {
		t.Fatalf("OpCount = %d", events[0].OpCount)
	}
	// All 4 nodes (including the observer) must hold the write.
	for i := 0; i < 4; i++ {
		if _, ok := n.WorldState(i).Get(statestore.Key{Name: "k"}); !ok {
			t.Fatalf("node %d missing key", i)
		}
	}
}

func TestMultiOperationTransaction(t *testing.T) {
	n, col := startBest(t, coconut.BenchKeyValueSet)
	ops := make([]chain.Operation, 50)
	for i := range ops {
		ops[i] = chain.Operation{
			IEL:      iel.KeyValueName,
			Function: iel.FnSet,
			Args:     []string{fmt.Sprintf("multi-%d", i), "v"},
		}
	}
	tx := chain.NewTransaction("client-1", 0, ops...)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, e := range col.Wait(t, 1, 10*time.Second) {
		got += e.OpCount
	}
	if got != 50 {
		t.Fatalf("op count = %d, want 50 (each op counts as one tx, §4.5)", got)
	}
}

func TestAtomicTransactionDiscardOnFailingOp(t *testing.T) {
	n, col := startBest(t, coconut.BenchKeyValueSet)
	// Second op reads a missing key: whole tx must vanish.
	tx := chain.NewTransaction("client-1", 0,
		chain.Operation{IEL: iel.KeyValueName, Function: iel.FnSet, Args: []string{"atomic-k", "v"}},
		chain.Operation{IEL: iel.KeyValueName, Function: iel.FnGet, Args: []string{"never-written"}},
	)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	control := chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnSet, "ctl", "v")
	if err := n.Submit(0, control); err != nil {
		t.Fatal(err)
	}
	events := col.Wait(t, 1, 10*time.Second)
	for _, e := range events {
		if e.TxID == tx.ID {
			t.Fatal("failing atomic transaction produced an event")
		}
	}
	if _, ok := n.WorldState(0).Get(statestore.Key{Name: "atomic-k"}); ok {
		t.Fatal("partial write from discarded transaction leaked")
	}
}

func TestNonWitnessNodeCanSubmit(t *testing.T) {
	n, col := startBest(t, coconut.BenchDoNothing)
	// Node 3 is the observer (witnesses are nodes 0-2).
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(3, tx); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)
}

func TestLedgersConverge(t *testing.T) {
	n, col := startBest(t, coconut.BenchKeyValueSet)
	for i := 0; i < 9; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("key-%d", i), "v")
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 9, 10*time.Second)
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

func TestReadsNeverConflict(t *testing.T) {
	// Get/Balance write nothing, so they can never be excluded — the
	// WrittenKeys-based rule (paper: Get works at full rate, §5.3) — even
	// inside the KeyValue-Get cell's 160-transaction conflict window.
	n, col := startBest(t, coconut.BenchKeyValueGet)
	set := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "rk", "v")
	if err := n.Submit(0, set); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)
	for i := 0; i < 5; i++ {
		get := chain.NewSingleOp("client-1", uint64(10+i), iel.KeyValueName, iel.FnGet, "rk")
		if err := n.Submit(0, get); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 6, 10*time.Second)
	if n.ExcludedCount() != 0 {
		t.Fatalf("reads were excluded (%d); only writes interact", n.ExcludedCount())
	}
}
