package fabric_test

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
	"github.com/coconut-bench/coconut/internal/systems/fabric"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// startBest starts Fabric on a test env at its Figure 3 cell for bench, with
// a collector for client-1.
func startBest(t *testing.T, bench coconut.BenchmarkName) (*fabric.Network, *systemstest.Collector) {
	t.Helper()
	cell, ok := experiments.BestCell(systems.NameFabric, bench)
	if !ok {
		t.Fatalf("no Figure 3 cell for Fabric %s", bench)
	}
	env := systemstest.Env(t)
	n := fabric.New(env, cell.Params)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	return n, col
}

func TestName(t *testing.T) {
	n, _ := startBest(t, coconut.BenchDoNothing)
	if n.Name() != systems.NameFabric {
		t.Fatalf("Name = %q", n.Name())
	}
	if n.NodeCount() != 4 {
		t.Fatalf("NodeCount = %d, want 4 (paper Table 4)", n.NodeCount())
	}
}

func TestDoNothingCommitsEndToEnd(t *testing.T) {
	n, col := startBest(t, coconut.BenchDoNothing)
	for i := 0; i < 5; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	events := col.Wait(t, 5, 5*time.Second)
	for _, e := range events {
		if !e.Committed || !e.ValidOK {
			t.Fatalf("event = %+v, want committed+valid", e)
		}
		if e.BlockNum == 0 {
			t.Fatal("committed tx has block number 0 (genesis)")
		}
	}
}

func TestKeyValueSetReachesWorldStateOnAllPeers(t *testing.T) {
	n, col := startBest(t, coconut.BenchKeyValueSet)
	for i := 0; i < 4; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("k%d", i), "v")
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 4, 5*time.Second)
	for p := 0; p < 4; p++ {
		for i := 0; i < 4; i++ {
			if _, ok := n.WorldState(p).Get(statestore.Key{Name: fmt.Sprintf("k%d", i)}); !ok {
				t.Fatalf("peer %d missing key k%d", p, i)
			}
		}
	}
}

func TestMVCCConflictAppendedButInvalid(t *testing.T) {
	n, col := startBest(t, coconut.BenchSendPayment)

	// Create an account, wait for commit so later reads see it.
	setup := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnCreateAccount, "a", "100", "0")
	setup2 := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnCreateAccount, "b", "0", "0")
	filler := chain.NewSingleOp("client-1", 2, iel.DoNothingName, iel.FnDoNothing)
	for _, tx := range []*chain.Transaction{setup, setup2, filler} {
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 3, 5*time.Second)

	// Three overwriting payments endorsed against the same versions before
	// any of them commits: the first validates, the others MVCC-fail but
	// are still appended (paper §5.4).
	pay1 := chain.NewSingleOp("client-1", 3, iel.BankingAppName, iel.FnSendPayment, "a", "b", "10")
	pay2 := chain.NewSingleOp("client-1", 4, iel.BankingAppName, iel.FnSendPayment, "a", "b", "10")
	pay3 := chain.NewSingleOp("client-1", 5, iel.BankingAppName, iel.FnSendPayment, "a", "b", "10")
	for _, tx := range []*chain.Transaction{pay1, pay2, pay3} {
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	events := col.Wait(t, 6, 5*time.Second)

	valid, invalid := 0, 0
	for _, e := range events[3:] {
		if !e.Committed {
			t.Fatalf("payment not appended: %+v", e)
		}
		if e.ValidOK {
			valid++
		} else {
			invalid++
		}
	}
	if valid != 1 || invalid != 2 {
		t.Fatalf("valid=%d invalid=%d, want 1 valid and 2 MVCC-failed", valid, invalid)
	}
	// World state must reflect exactly one applied payment.
	v, _ := n.WorldState(0).Get(statestore.Key{Name: "a", Part: statestore.Checking})
	if v.Value != "90" {
		t.Fatalf("balance a = %s, want 90", v.Value)
	}
}

func TestBatchTimeoutCutsPartialBlocks(t *testing.T) {
	n, col := startBest(t, coconut.BenchDoNothing)
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	// One tx against MM=1000 (10 scaled): only the timeout can cut the block.
	col.Wait(t, 1, 5*time.Second)
}

func TestSubmitAfterStop(t *testing.T) {
	cell, _ := experiments.BestCell(systems.NameFabric, coconut.BenchDoNothing)
	n := fabric.New(systemstest.Env(t), cell.Params)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	tx := chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}

func TestLedgersConsistentAcrossPeers(t *testing.T) {
	n, col := startBest(t, coconut.BenchKeyValueSet)
	for i := 0; i < 21; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("key-%d", i), "v")
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 21, 5*time.Second)
	h0 := n.Ledger(0).Head().Hash
	for _, p := range n.Replicas()[1:] {
		if p.Ledger.Head().Hash != h0 {
			t.Fatal("peer ledgers diverged")
		}
		if err := p.Ledger.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}
