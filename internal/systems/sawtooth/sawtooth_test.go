package sawtooth

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
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
	n, col := start(t, nil)
	for i := 0; i < 8; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
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
	n, col := start(t, func(c *config) { c.pendingStallAt = 4 }) // stall at the current size
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
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
