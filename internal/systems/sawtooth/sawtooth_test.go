package sawtooth

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/systems"
)

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

func (c *collector) wait(t *testing.T, want int, timeout time.Duration) []systems.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.events)
		c.mu.Unlock()
		if n >= want {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]systems.Event, len(c.events))
			copy(out, c.events)
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("received %d events, want %d", c.len(), want)
	return nil
}

func newNetwork(t *testing.T, cfg Config) (*Network, *collector) {
	t.Helper()
	if cfg.BlockPublishingDelay == 0 {
		cfg.BlockPublishingDelay = 10 * time.Millisecond
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

func TestNameAndNodeCount(t *testing.T) {
	n := New(Config{})
	if n.Name() != systems.NameSawtooth || n.NodeCount() != 4 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.NodeCount())
	}
}

func TestSingleTxCommits(t *testing.T) {
	n, col := newNetwork(t, Config{})
	tx := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	events := col.wait(t, 1, 10*time.Second)
	if !events[0].Committed || !events[0].ValidOK {
		t.Fatalf("event = %+v", events[0])
	}
	for i := 0; i < 4; i++ {
		if _, ok := n.WorldState(i).Get("k"); !ok {
			t.Fatalf("validator %d missing key", i)
		}
	}
}

func TestAtomicBatchCommitsTogether(t *testing.T) {
	n, col := newNetwork(t, Config{})
	txs := make([]*chain.Transaction, 5)
	for i := range txs {
		txs[i] = chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("bk%d", i), "v")
	}
	if err := n.SubmitBatch(0, chain.NewBatch(txs...)); err != nil {
		t.Fatal(err)
	}
	events := col.wait(t, 5, 10*time.Second)
	block := events[0].BlockNum
	for _, e := range events {
		if e.BlockNum != block {
			t.Fatal("batch members landed in different blocks")
		}
	}
}

func TestFailingBatchDiscardedEntirely(t *testing.T) {
	n, col := newNetwork(t, Config{})
	good := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "good", "v")
	bad := chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnGet, "missing-key")
	if err := n.SubmitBatch(0, chain.NewBatch(good, bad)); err != nil {
		t.Fatal(err)
	}
	// A control batch proves the pipeline still works.
	control := chain.NewSingleOp("client-1", 2, iel.KeyValueName, iel.FnSet, "ctl", "v")
	if err := n.Submit(1, control); err != nil {
		t.Fatal(err)
	}
	events := col.wait(t, 1, 10*time.Second)
	for _, e := range events {
		if e.TxID == good.ID || e.TxID == bad.ID {
			t.Fatalf("discarded batch produced event %+v", e)
		}
	}
	// The good tx's write must not have leaked.
	if _, ok := n.WorldState(0).Get("good"); ok {
		t.Fatal("partial batch write leaked (atomicity violated)")
	}
}

func TestQueueRejectsWhenFull(t *testing.T) {
	n, _ := newNetwork(t, Config{
		QueueDepth:           4,
		BlockPublishingDelay: time.Hour, // never drain
	})
	rejected := 0
	for i := 0; i < 20; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); errors.Is(err, mempool.ErrQueueFull) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("full queue never rejected (backpressure broken)")
	}
	_, r := n.QueueStats()
	if r == 0 {
		t.Fatal("queue stats recorded no rejections")
	}
}

func TestRejectedBatchCanBeResent(t *testing.T) {
	n, col := newNetwork(t, Config{QueueDepth: 1, BlockPublishingDelay: 10 * time.Millisecond})
	b1 := chain.NewBatch(chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing))
	b2 := chain.NewBatch(chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing))
	if err := n.SubmitBatch(0, b1); err != nil {
		t.Fatal(err)
	}
	err := n.SubmitBatch(0, b2)
	if err == nil {
		// Timing-dependent: the queue may already have drained; force the
		// resend path anyway.
		col.wait(t, 2, 10*time.Second)
		return
	}
	// Retry until admitted, as the paper says clients must.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err = n.SubmitBatch(0, b2); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("batch never admitted after retries: %v", err)
	}
	col.wait(t, 2, 10*time.Second)
}

func TestBatchSizeBoundsPerBlock(t *testing.T) {
	n, col := newNetwork(t, Config{MaxBlockBatches: 2, QueueDepth: 1000})
	for i := 0; i < 8; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 8, 10*time.Second)
	blocks := n.Ledger(0).Blocks()
	for _, b := range blocks[1:] {
		if b.TxCount() > 2 {
			t.Fatalf("block %d has %d txs, exceeds MaxBlockBatches=2 (1 tx per batch)", b.Number, b.TxCount())
		}
	}
}

func TestDuplicateBatchIgnored(t *testing.T) {
	n, col := newNetwork(t, Config{})
	b := chain.NewBatch(chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing))
	if err := n.SubmitBatch(0, b); err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitBatch(0, b); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)
	time.Sleep(50 * time.Millisecond)
	if col.len() > 1 {
		t.Fatalf("duplicate batch produced %d events", col.len())
	}
}

func TestSubmitAfterStop(t *testing.T) {
	n := New(Config{BlockPublishingDelay: 10 * time.Millisecond})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	tx := chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}

func TestDrainedReportsQueueState(t *testing.T) {
	n, col := newNetwork(t, Config{QueueDepth: 100})
	if !n.Drained() {
		t.Fatal("fresh network must be drained")
	}
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !n.Drained() {
		time.Sleep(5 * time.Millisecond)
	}
	if !n.Drained() {
		t.Fatal("network not drained after commit")
	}
}

func TestPendingStallAtValidators(t *testing.T) {
	n := New(Config{
		Validators:               4,
		BlockPublishingDelay:     10 * time.Millisecond,
		PendingStallAtValidators: 4, // stall at the current size
	})
	col := &collector{}
	n.Subscribe("client-1", col.add)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if col.len() != 0 {
		t.Fatal("stalled network finalized a transaction")
	}
	if n.Drained() {
		t.Fatal("transactions must stay pending, not drain")
	}
}
