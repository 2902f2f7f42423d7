package fabric

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/consensus/raft"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
)

// collector gathers events for one client.
type collector struct {
	mu     sync.Mutex
	events []systems.Event
}

func (c *collector) add(e systems.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func (c *collector) snapshot() []systems.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]systems.Event, len(c.events))
	copy(out, c.events)
	return out
}

func (c *collector) wait(t *testing.T, want int, timeout time.Duration) []systems.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.len() >= want {
			return c.snapshot()
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("received %d events, want %d", c.len(), want)
	return nil
}

func newNetwork(t *testing.T, cfg Config) (*Network, *collector) {
	t.Helper()
	if cfg.BatchTimeout == 0 {
		cfg.BatchTimeout = 20 * time.Millisecond
	}
	n := New(cfg)
	col := &collector{}
	n.Subscribe("client-1", col.add)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, col
}

func TestName(t *testing.T) {
	n := New(Config{})
	if n.Name() != systems.NameFabric {
		t.Fatalf("Name = %q", n.Name())
	}
	if n.NodeCount() != 4 {
		t.Fatalf("NodeCount = %d, want 4 (paper Table 4)", n.NodeCount())
	}
}

func TestDoNothingCommitsEndToEnd(t *testing.T) {
	n, col := newNetwork(t, Config{MaxMessageCount: 10})
	for i := 0; i < 5; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	events := col.wait(t, 5, 5*time.Second)
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
	n, col := newNetwork(t, Config{MaxMessageCount: 4})
	for i := 0; i < 4; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("k%d", i), "v")
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 4, 5*time.Second)
	for p := 0; p < 4; p++ {
		for i := 0; i < 4; i++ {
			if _, ok := n.WorldState(p).Get(fmt.Sprintf("k%d", i)); !ok {
				t.Fatalf("peer %d missing key k%d", p, i)
			}
		}
	}
}

func TestMVCCConflictAppendedButInvalid(t *testing.T) {
	n, col := newNetwork(t, Config{MaxMessageCount: 3})

	// Create an account, wait for commit so later reads see it.
	setup := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnCreateAccount, "a", "100", "0")
	setup2 := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnCreateAccount, "b", "0", "0")
	filler := chain.NewSingleOp("client-1", 2, iel.DoNothingName, iel.FnDoNothing)
	for _, tx := range []*chain.Transaction{setup, setup2, filler} {
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 3, 5*time.Second)

	// Two overwriting payments endorsed against the same versions, landing
	// in the same block: the first validates, the second MVCC-fails but is
	// still appended (paper §5.4).
	pay1 := chain.NewSingleOp("client-1", 3, iel.BankingAppName, iel.FnSendPayment, "a", "b", "10")
	pay2 := chain.NewSingleOp("client-1", 4, iel.BankingAppName, iel.FnSendPayment, "a", "b", "10")
	pay3 := chain.NewSingleOp("client-1", 5, iel.BankingAppName, iel.FnSendPayment, "a", "b", "10")
	for _, tx := range []*chain.Transaction{pay1, pay2, pay3} {
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	events := col.wait(t, 6, 5*time.Second)

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
	v, _ := n.WorldState(0).Get("acct/a/checking")
	if v.Value != "90" {
		t.Fatalf("balance a = %s, want 90", v.Value)
	}
}

func TestBatchTimeoutCutsPartialBlocks(t *testing.T) {
	n, col := newNetwork(t, Config{MaxMessageCount: 1000, BatchTimeout: 15 * time.Millisecond})
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	// One tx, MM=1000: only the timeout can cut the block.
	col.wait(t, 1, 5*time.Second)
}

func TestMaxMessageCountBoundsBlockSize(t *testing.T) {
	n, col := newNetwork(t, Config{MaxMessageCount: 5, BatchTimeout: time.Hour})
	for i := 0; i < 20; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 20, 5*time.Second)
	// Inspect peer 0's chain: all non-genesis blocks must be <= 5 txs.
	blocks := n.Ledger(0).Blocks()
	for _, b := range blocks[1:] {
		if b.TxCount() > 5 {
			t.Fatalf("block %d has %d txs, exceeds MaxMessageCount=5", b.Number, b.TxCount())
		}
	}
}

func TestOrdererOverflowLosesTransactionsSilently(t *testing.T) {
	n, col := newNetwork(t, Config{
		MaxMessageCount:   1000,
		BatchTimeout:      time.Hour, // no cutting: queue only fills
		OrdererQueueDepth: 10,
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
	if col.len() != 0 {
		t.Fatal("no blocks should have been cut")
	}
}

func TestSubmitAfterStop(t *testing.T) {
	n := New(Config{BatchTimeout: 10 * time.Millisecond})
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
	n, col := newNetwork(t, Config{MaxMessageCount: 7})
	for i := 0; i < 21; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("key-%d", i), "v")
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 21, 5*time.Second)
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

// TestEveryOrdererReplicatesTheBatchLog checks that each orderer is a Raft
// member: once the batches commit, all orderers name the same leader and
// each has committed as far as that leader.
func TestEveryOrdererReplicatesTheBatchLog(t *testing.T) {
	n, col := newNetwork(t, Config{MaxMessageCount: 5})
	const txs = 10
	for i := 0; i < txs; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, txs, 5*time.Second)
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
	deadline := time.Now().Add(5 * time.Second)
	for _, o := range n.orderers {
		for o.node.Leader() != leader.id || o.node.CommitIndex() < want {
			if time.Now().After(deadline) {
				t.Fatalf("orderer %s: leader %q commit %d, want leader %q commit >= %d",
					o.id, o.node.Leader(), o.node.CommitIndex(), leader.id, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestEventLossAtPeersSuppressesClientEvents(t *testing.T) {
	n, col := newNetwork(t, Config{
		Peers:            4,
		EventLossAtPeers: 4, // loss threshold at the current size
		MaxMessageCount:  2,
	})
	for i := 0; i < 4; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("loss-%d", i), "v")
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	// Blocks must still commit on-chain...
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && n.Ledger(0).Height() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if n.Ledger(0).Height() == 0 {
		t.Fatal("no blocks committed")
	}
	// ...while clients hear nothing (the paper's §5.8.2 Fabric finding).
	time.Sleep(100 * time.Millisecond)
	if col.len() != 0 {
		t.Fatalf("client received %d events despite event loss", col.len())
	}
	// State still advances on every peer.
	if _, ok := n.WorldState(0).Get("loss-0"); !ok {
		t.Fatal("world state missing committed write")
	}
}
