package sawtooth

import (
	"errors"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// start builds Sawtooth on a test env from its calibration at the paper's
// default parameters, with override (when not nil) applied, and starts it
// with a collector for client-1.
func start(t *testing.T, override func(*config)) (*Network, *systemstest.Collector) {
	t.Helper()
	env := systemstest.Env(t)
	cfg := calibrate(env, systems.Params{})
	if override != nil {
		override(&cfg)
	}
	n := build(env, cfg)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	return n, col
}

func TestBatchSizeBoundsPerBlock(t *testing.T) {
	var nums systemstest.Numbers
	n, col := start(t, nil)
	for i := 0; i < 8; i++ {
		tx := nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing))
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 8, 10*time.Second)
	blocks := n.Ledger(0).Blocks()
	for _, b := range blocks[1:] {
		if b.TxCount() > maxBlockBatches {
			t.Fatalf("block %d has %d txs, exceeds %d batches of one tx", b.Number, b.TxCount(), maxBlockBatches)
		}
	}
}

func TestPendingStallAtValidators(t *testing.T) {
	var nums systemstest.Numbers
	n, col := start(t, func(c *config) { c.pendingStallAt = 4 }) // stall at the current size
	tx := nums.Next(chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing))
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	n.env.Clock.Sleep(systemstest.Settle)
	if col.Len() != 0 {
		t.Fatal("stalled network finalized a transaction")
	}
	if n.Drained() {
		t.Fatal("transactions must stay pending, not drain")
	}
}

// TestRejectedBatchIsAdmittedWhenResent: a batch the full queue rejects is
// not marked seen, so re-sending it once there is room admits it; a batch
// that was admitted is not admitted again.
func TestRejectedBatchIsAdmittedWhenResent(t *testing.T) {
	var nums systemstest.Numbers
	n, _ := start(t, func(c *config) { c.pendingStallAt = 4 }) // nothing is published
	v := n.validators[0]
	batch := func(i int) *chain.Batch {
		return chain.NewBatch(nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)))
	}
	for i := 0; i < queueDepth; i++ {
		if err := n.SubmitBatch(0, batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	rejected := batch(queueDepth)
	if err := n.SubmitBatch(0, rejected); !errors.Is(err, mempool.ErrQueueFull) {
		t.Fatalf("submit to a full queue: err = %v, want ErrQueueFull", err)
	}
	n.queues.Take(v.index, 1)
	for resend := 0; resend < 2; resend++ {
		if err := n.SubmitBatch(0, rejected); err != nil {
			t.Fatalf("re-send %d: %v", resend, err)
		}
	}
	if got := n.queues.Len(v.index); got != queueDepth {
		t.Fatalf("queue holds %d batches after the re-sends, want %d", got, queueDepth)
	}
	if admitted, _ := n.queues.Stats(v.index); admitted != queueDepth+1 {
		t.Fatalf("%d admissions, want %d: the re-sent batch was admitted %d times", admitted, queueDepth+1, int(admitted)-queueDepth)
	}
}

// TestUnnumberedSubmitIsRefused: the queues know a batch by its number, its
// first member's, so Submit and SubmitBatch refuse an unnumbered one with
// ErrUnnumbered, and no validator admits or gossips it.
func TestUnnumberedSubmitIsRefused(t *testing.T) {
	n, _ := start(t, nil)
	tx := chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); !errors.Is(err, systems.ErrUnnumbered) {
		t.Fatalf("Submit of an unnumbered transaction: err = %v, want ErrUnnumbered", err)
	}
	var nums systemstest.Numbers
	second := nums.Next(chain.NewSingleOp("client-1", 2, iel.DoNothingName, iel.FnDoNothing))
	if err := n.SubmitBatch(1, chain.NewBatch(tx, second)); !errors.Is(err, systems.ErrUnnumbered) {
		t.Fatalf("SubmitBatch led by an unnumbered transaction: err = %v, want ErrUnnumbered", err)
	}
	n.env.Clock.Sleep(100 * time.Millisecond)
	for _, v := range n.validators {
		if admitted, rejected := n.queues.Stats(v.index); n.queues.Len(v.index) != 0 || admitted != 0 || rejected != 0 {
			t.Errorf("%s: %d queued, %d admitted, %d rejected; want an untouched queue", v.ID, n.queues.Len(v.index), admitted, rejected)
		}
	}
	if !n.Drained() {
		t.Fatal("the network is not drained after refused submissions")
	}
}
