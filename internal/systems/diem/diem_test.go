package diem

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// testNetwork builds Diem on env from its calibration at the paper's
// default parameters with override applied, and subscribes a collector for
// client-1.
func testNetwork(env systems.Env, override func(*config)) (*Network, *systemstest.Collector) {
	cfg := calibrate(env, systems.Params{})
	override(&cfg)
	n := build(env, cfg)
	return n, systemstest.Collect(env, n, "client-1")
}

func TestMaxBlockSizeBoundsBlocks(t *testing.T) {
	n, col := testNetwork(systemstest.Env(t), func(c *config) { c.maxBlockSize = 3 })
	systemstest.Start(t, n)
	for i := 0; i < 12; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 12, 15*time.Second)
	for _, b := range n.Ledger(0).Blocks()[1:] {
		if b.TxCount() > 3 {
			t.Fatalf("block %d has %d txs, exceeds max_block_size=3", b.Number, b.TxCount())
		}
	}
}

func TestSpikingCausesAdmissionLosses(t *testing.T) {
	// With near-continuous spikes on a small mempool, the entry validator
	// cannot drain its pool and admission control must reject; without
	// spiking the same load is absorbed.
	run := func(spikePeriod, spikeDuration time.Duration) (delivered int, rejected uint64) {
		env := systemstest.Env(t)
		n, col := testNetwork(env, func(c *config) {
			c.roundInterval = 5 * time.Millisecond
			c.spikePeriod, c.spikeDuration = spikePeriod, spikeDuration
			c.mempoolDepth = 32
		})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		for i := 0; i < 600; i++ {
			tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
			// All load on one validator, which leads one round in four: 20
			// transactions per leadership fit its 32-deep pool.
			_ = n.Submit(0, tx)
			env.Clock.Sleep(time.Millisecond)
		}
		env.Clock.Sleep(300 * time.Millisecond)
		_, r := n.PoolStats()
		return col.Len(), r
	}
	healthyDelivered, healthyRejected := run(0, 0)
	if healthyDelivered == 0 {
		t.Fatal("healthy run delivered nothing")
	}
	if healthyRejected != 0 {
		t.Fatalf("healthy run rejected %d transactions", healthyRejected)
	}
	spikingDelivered, spikingRejected := run(60*time.Millisecond, 55*time.Millisecond)
	if spikingRejected == 0 {
		t.Fatal("spiking run rejected nothing; spikes must cause admission losses")
	}
	if spikingDelivered >= healthyDelivered {
		t.Fatalf("spiking delivered %d >= healthy %d", spikingDelivered, healthyDelivered)
	}
}
