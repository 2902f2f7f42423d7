package fabric

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/consensus/raft"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// start builds Fabric on a test env from its calibration at the paper's
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

func TestMaxMessageCountBoundsBlockSize(t *testing.T) {
	n, col := start(t, func(c *config) { c.maxMessageCount, c.batchTimeout = 5, time.Hour })
	for i := 0; i < 20; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 20, 5*time.Second)
	// Inspect peer 0's chain: all non-genesis blocks must be <= 5 txs.
	blocks := n.Ledger(0).Blocks()
	for _, b := range blocks[1:] {
		if b.TxCount() > 5 {
			t.Fatalf("block %d has %d txs, exceeds MaxMessageCount=5", b.Number, b.TxCount())
		}
	}
}

func TestOrdererOverflowLosesTransactionsSilently(t *testing.T) {
	n, col := start(t, func(c *config) {
		c.maxMessageCount = 1000
		c.batchTimeout = time.Hour // no cutting: queue only fills
		c.ordererQueue = 10
	})
	for i := 0; i < 50; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		// Submit must not error: the loss is silent end to end.
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	_, rejected := n.OrdererStats()
	if rejected == 0 {
		t.Fatal("expected orderer queue rejections under overflow")
	}
	if col.Len() != 0 {
		t.Fatal("no blocks should have been cut")
	}
}

// TestEveryOrdererReplicatesTheBatchLog checks that each orderer is a Raft
// member: once the batches commit, all orderers name the same leader and
// each has committed as far as that leader.
func TestEveryOrdererReplicatesTheBatchLog(t *testing.T) {
	n, col := start(t, nil)
	const txs = 10
	for i := 0; i < txs; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, txs, 5*time.Second)
	var leader *orderer
	for _, o := range n.orderers {
		if o.node.Role() == raft.Leader {
			leader = o
		}
	}
	if leader == nil {
		t.Fatal("batches committed but no orderer is the Raft leader")
	}
	want := leader.node.CommitIndex()
	if want < 1 {
		t.Fatalf("leader commit index = %d, want >= 1", want)
	}
	clk := n.env.Clock
	deadline := clk.Now().Add(5 * time.Second)
	for _, o := range n.orderers {
		for o.node.Leader() != leader.id || o.node.CommitIndex() < want {
			if clk.Now().After(deadline) {
				t.Fatalf("orderer %s: leader %q commit %d, want leader %q commit >= %d",
					o.id, o.node.Leader(), o.node.CommitIndex(), leader.id, want)
			}
			clk.Sleep(2 * time.Millisecond)
		}
	}
}

func TestEventLossAtPeersSuppressesClientEvents(t *testing.T) {
	n, col := start(t, func(c *config) { c.eventLossAtPeers = 4 }) // the current size
	clk := n.env.Clock
	for i := 0; i < 4; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("loss-%d", i), "v")
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	// Blocks must still commit on-chain...
	deadline := clk.Now().Add(5 * time.Second)
	for clk.Now().Before(deadline) && n.Ledger(0).Height() == 0 {
		clk.Sleep(5 * time.Millisecond)
	}
	if n.Ledger(0).Height() == 0 {
		t.Fatal("no blocks committed")
	}
	// ...while clients hear nothing (the paper's §5.8.2 Fabric finding).
	clk.Sleep(systemstest.Settle)
	if col.Len() != 0 {
		t.Fatalf("client received %d events despite event loss", col.Len())
	}
	// State still advances on every peer.
	if _, ok := n.WorldState(0).Get(statestore.Key{Name: "loss-0"}); !ok {
		t.Fatal("world state missing committed write")
	}
}

// TestEndorseAllocs: a transaction none of whose operations touches state
// is endorsed without allocating and carries the shared empty read-write
// set, which validates and commits as nothing; one that writes records its
// own set.
func TestEndorseAllocs(t *testing.T) {
	n, _ := start(t, nil)
	state := n.Replicas()[0].State
	noop := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if a := testing.AllocsPerRun(100, func() { n.endorse(state, noop) }); a != 0 {
		t.Fatalf("endorsing DoNothing allocates %v times, want 0", a)
	}
	env := n.endorse(state, noop)
	if env.RWSet != &noRWSet {
		t.Fatal("DoNothing did not get the shared empty read-write set")
	}
	keys := state.Len()
	if err := env.RWSet.Validate(state); err != nil {
		t.Fatal(err)
	}
	env.RWSet.Commit(state, statestore.Version{BlockNum: 1})
	if state.Len() != keys {
		t.Fatal("committing the empty read-write set wrote state")
	}
	set := chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnSet, "k", "v")
	if env := n.endorse(state, set); env.RWSet == &noRWSet {
		t.Fatal("a Set shares the empty read-write set")
	} else if v, ok := env.RWSet.Written(statestore.Key{Name: "k"}); !ok || v != "v" {
		t.Fatalf("Set endorsed as %q, %v; want the write of v", v, ok)
	}
}
