package quorum_test

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
	"github.com/coconut-bench/coconut/internal/systems/quorum"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// build builds Quorum on a test env at its Figure 3 cell for bench.
func build(t *testing.T, bench coconut.BenchmarkName) (*quorum.Network, systems.Env) {
	t.Helper()
	cell, ok := experiments.BestCell(systems.NameQuorum, bench)
	if !ok {
		t.Fatalf("no Figure 3 cell for Quorum %s", bench)
	}
	env := systemstest.Env(t)
	return quorum.New(env, cell.Params), env
}

// startBest starts Quorum at its Figure 3 cell for bench, with a collector
// for client-1.
func startBest(t *testing.T, bench coconut.BenchmarkName) (*quorum.Network, *systemstest.Collector) {
	t.Helper()
	n, env := build(t, bench)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	return n, col
}

func TestNameAndNodeCount(t *testing.T) {
	n, _ := build(t, coconut.BenchDoNothing)
	if n.Name() != systems.NameQuorum || n.NodeCount() != 4 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.NodeCount())
	}
}

func TestCommitsEndToEnd(t *testing.T) {
	var nums systemstest.Numbers
	n, col := startBest(t, coconut.BenchDoNothing)
	for i := 0; i < 5; i++ {
		tx := nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing))
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	events := col.Wait(t, 5, 10*time.Second)
	for _, e := range events {
		if !e.Committed || !e.ValidOK {
			t.Fatalf("event = %+v", e)
		}
	}
}

func TestOrderExecuteAppliesState(t *testing.T) {
	var nums systemstest.Numbers
	n, col := startBest(t, coconut.BenchKeyValueSet)
	tx := nums.Next(chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v"))
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)
	for i := 0; i < 4; i++ {
		if v, ok := n.WorldState(i).Get(statestore.Key{Name: "k"}); !ok || v.Value != "v" {
			t.Fatalf("validator %d state missing key", i)
		}
	}
}

func TestFailedExecutionStillIncluded(t *testing.T) {
	var nums systemstest.Numbers
	n, col := startBest(t, coconut.BenchBalance)
	// Balance of a nonexistent account fails execution but is included.
	tx := nums.Next(chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnBalance, "ghost"))
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	events := col.Wait(t, 1, 10*time.Second)
	if !events[0].Committed || events[0].ValidOK {
		t.Fatalf("event = %+v, want committed but invalid", events[0])
	}
}

// flood submits txs DoNothing transactions through validator 0 at once.
func flood(t *testing.T, n *quorum.Network, txs int) {
	t.Helper()
	var nums systemstest.Numbers
	for i := 0; i < txs; i++ {
		tx := nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing))
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
}

// waitStalled waits on clk until the livelock latches.
func waitStalled(t *testing.T, n *quorum.Network, env systems.Env) {
	t.Helper()
	deadline := env.Clock.Now().Add(5 * time.Second)
	for env.Clock.Now().Before(deadline) && !n.Stalled() {
		env.Clock.Sleep(5 * time.Millisecond)
	}
	if !n.Stalled() {
		t.Fatal("livelock never latched")
	}
}

// TestLivelockLatchesUnderLowBlockPeriodAndLoad floods the DoNothing cell
// (a 1 s block period, at the paper's "blockperiod <= 2" trigger) far past
// its scaled backlog limit before a block can drain it.
func TestLivelockLatchesUnderLowBlockPeriodAndLoad(t *testing.T) {
	n, env := build(t, coconut.BenchDoNothing)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	flood(t, n, 500)
	waitStalled(t, n, env)
	// Once stalled, the backlog stops draining: block height keeps growing
	// (empty blocks) while events stop.
	before := col.Len()
	h1 := n.Ledger(0).Height()
	env.Clock.Sleep(systemstest.Settle)
	if n.Ledger(0).Height() <= h1 {
		t.Fatal("stalled node stopped producing empty blocks (must keep consensus alive)")
	}
	if got := col.Len(); got > before+50 {
		t.Fatalf("events kept flowing after stall: %d -> %d", before, got)
	}
	if n.PoolDepth() == 0 {
		t.Fatal("backlog drained despite livelock")
	}
}

// TestNoLivelockAtHighBlockPeriod floods the KeyValue-Get cell, whose 5 s
// block period is above the trigger.
func TestNoLivelockAtHighBlockPeriod(t *testing.T) {
	n, env := build(t, coconut.BenchKeyValueGet)
	systemstest.Start(t, n)
	flood(t, n, 200)
	env.Clock.Sleep(systemstest.Settle)
	if n.Stalled() {
		t.Fatal("livelock latched above the stall block period")
	}
}

func TestLedgersConverge(t *testing.T) {
	var nums systemstest.Numbers
	n, env := build(t, coconut.BenchKeyValueSet)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	for i := 0; i < 12; i++ {
		tx := nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("key-%d", i), "v"))
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 12, 10*time.Second)
	// All validators eventually hold identical chains.
	clk := env.Clock
	deadline := clk.Now().Add(5 * time.Second)
	for clk.Now().Before(deadline) {
		h := n.Ledger(0).Height()
		same := true
		for i := 1; i < n.NodeCount(); i++ {
			if n.Ledger(i).Height() < h {
				same = false
			}
		}
		if same {
			break
		}
		clk.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < n.NodeCount(); i++ {
		if err := n.Ledger(i).Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitAfterStop(t *testing.T) {
	var nums systemstest.Numbers
	n, _ := build(t, coconut.BenchDoNothing)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	tx := nums.Next(chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing))
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}

func TestDrainedAndStallInteraction(t *testing.T) {
	n, env := build(t, coconut.BenchDoNothing)
	systemstest.Start(t, n)
	if !n.Drained() {
		t.Fatal("fresh network must be drained")
	}
	flood(t, n, 300)
	waitStalled(t, n, env)
	// A stalled network reports drained: its backlog will never move, so
	// waiting longer is pointless for the runner.
	if !n.Drained() {
		t.Fatal("stalled network must report drained")
	}
}
