package sawtooth_test

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
	"github.com/coconut-bench/coconut/internal/systems/sawtooth"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// build builds Sawtooth on a test env at its Figure 3 cell for bench: one
// batch per block, published every 1.025 s (the cost of a 100-member
// batch), behind an 8-batch admission queue.
func build(t *testing.T, bench coconut.BenchmarkName) (*sawtooth.Network, systems.Env) {
	t.Helper()
	cell, ok := experiments.BestCell(systems.NameSawtooth, bench)
	if !ok {
		t.Fatalf("no Figure 3 cell for Sawtooth %s", bench)
	}
	env := systemstest.Env(t)
	return sawtooth.New(env, cell.Params), env
}

// startBest starts Sawtooth at its Figure 3 cell for bench, with a
// collector for client-1.
func startBest(t *testing.T, bench coconut.BenchmarkName) (*sawtooth.Network, *systemstest.Collector) {
	t.Helper()
	n, env := build(t, bench)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	return n, col
}

func TestNameAndNodeCount(t *testing.T) {
	n, _ := build(t, coconut.BenchDoNothing)
	if n.Name() != systems.NameSawtooth || n.NodeCount() != 4 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.NodeCount())
	}
}

func TestSingleTxCommits(t *testing.T) {
	var nums systemstest.Numbers
	n, col := startBest(t, coconut.BenchKeyValueSet)
	tx := nums.Next(chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v"))
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	events := col.Wait(t, 1, 10*time.Second)
	if !events[0].Committed || !events[0].ValidOK {
		t.Fatalf("event = %+v", events[0])
	}
	for i := 0; i < 4; i++ {
		if _, ok := n.WorldState(i).Get(statestore.Key{Name: "k"}); !ok {
			t.Fatalf("validator %d missing key", i)
		}
	}
}

func TestAtomicBatchCommitsTogether(t *testing.T) {
	var nums systemstest.Numbers
	n, col := startBest(t, coconut.BenchKeyValueSet)
	txs := make([]*chain.Transaction, 5)
	for i := range txs {
		txs[i] = nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("bk%d", i), "v"))
	}
	if err := n.SubmitBatch(0, chain.NewBatch(txs...)); err != nil {
		t.Fatal(err)
	}
	events := col.Wait(t, 5, 10*time.Second)
	block := events[0].BlockNum
	for _, e := range events {
		if e.BlockNum != block {
			t.Fatal("batch members landed in different blocks")
		}
	}
}

func TestFailingBatchDiscardedEntirely(t *testing.T) {
	var nums systemstest.Numbers
	n, col := startBest(t, coconut.BenchKeyValueSet)
	good := nums.Next(chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "good", "v"))
	bad := nums.Next(chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnGet, "missing-key"))
	if err := n.SubmitBatch(0, chain.NewBatch(good, bad)); err != nil {
		t.Fatal(err)
	}
	// A control batch proves the pipeline still works.
	control := nums.Next(chain.NewSingleOp("client-1", 2, iel.KeyValueName, iel.FnSet, "ctl", "v"))
	if err := n.Submit(1, control); err != nil {
		t.Fatal(err)
	}
	events := col.Wait(t, 1, 10*time.Second)
	for _, e := range events {
		if e.TxID == good.ID || e.TxID == bad.ID {
			t.Fatalf("discarded batch produced event %+v", e)
		}
	}
	// The good tx's write must not have leaked.
	if _, ok := n.WorldState(0).Get(statestore.Key{Name: "good"}); ok {
		t.Fatal("partial batch write leaked (atomicity violated)")
	}
}

// fillQueue submits one-transaction batches through validator 0 at one
// instant until its admission queue rejects one, and returns the admitted
// count and the rejected batch.
func fillQueue(t *testing.T, n *sawtooth.Network) (admitted int, rejected *chain.Batch) {
	t.Helper()
	var nums systemstest.Numbers
	for i := 0; i < 100; i++ {
		b := chain.NewBatch(nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)))
		err := n.SubmitBatch(0, b)
		if errors.Is(err, mempool.ErrQueueFull) {
			return admitted, b
		}
		if err != nil {
			t.Fatal(err)
		}
		admitted++
	}
	t.Fatal("the admission queue never filled (backpressure broken)")
	return 0, nil
}

func TestQueueRejectsWhenFull(t *testing.T) {
	n, _ := startBest(t, coconut.BenchDoNothing)
	fillQueue(t, n)
	_, r := n.QueueStats()
	if r == 0 {
		t.Fatal("queue stats recorded no rejections")
	}
}

func TestRejectedBatchCanBeResent(t *testing.T) {
	n, env := build(t, coconut.BenchDoNothing)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	admitted, b := fillQueue(t, n)
	// Retry until admitted, as the paper says clients must: the queue frees
	// a slot once a block publishes.
	deadline := env.Clock.Now().Add(5 * time.Second)
	for n.SubmitBatch(0, b) != nil {
		if env.Clock.Now().After(deadline) {
			t.Fatal("batch never admitted after retries")
		}
		env.Clock.Sleep(5 * time.Millisecond)
	}
	col.Wait(t, admitted+1, 30*time.Second)
}

func TestDuplicateBatchIgnored(t *testing.T) {
	var nums systemstest.Numbers
	n, env := build(t, coconut.BenchDoNothing)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	b := chain.NewBatch(nums.Next(chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)))
	if err := n.SubmitBatch(0, b); err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitBatch(0, b); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)
	env.Clock.Sleep(systemstest.Settle)
	if col.Len() > 1 {
		t.Fatalf("duplicate batch produced %d events", col.Len())
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

func TestDrainedReportsQueueState(t *testing.T) {
	var nums systemstest.Numbers
	n, env := build(t, coconut.BenchDoNothing)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	if !n.Drained() {
		t.Fatal("fresh network must be drained")
	}
	tx := nums.Next(chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing))
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)
	deadline := env.Clock.Now().Add(5 * time.Second)
	for env.Clock.Now().Before(deadline) && !n.Drained() {
		env.Clock.Sleep(5 * time.Millisecond)
	}
	if !n.Drained() {
		t.Fatal("network not drained after commit")
	}
}
