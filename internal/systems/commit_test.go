package systems

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/statestore"
)

// commitCluster is a hand-built n-replica LedgerCluster whose replicas
// commit under rule; events holds what the hub reported.
type commitCluster struct {
	*LedgerCluster
	rule   ExecRule
	decide []consensus.DecideFunc
	events []Event
}

func newCommitCluster(n int, rule ExecRule, after func(int, Block)) *commitCluster {
	c := &commitCluster{rule: rule}
	c.LedgerCluster = NewLedgerCluster("Fake", NodeIDs("fake", n), Env{Clock: clock.NewAutoVirtual()}, func() int { return 0 })
	c.Subscribe("c", func(ev Event) { c.events = append(c.events, ev) })
	for r := 0; r < n; r++ {
		c.decide = append(c.decide, c.Decide(r, rule, asTestBlock, after))
	}
	return c
}

func asTestBlock(p any) (Block, bool) {
	b, ok := p.(Block)
	return b, ok
}

// commit hands b to every replica as the system would: Validate's from the
// ordering service, the others' each from its engine's decision.
func (c *commitCluster) commit(b Block) {
	if c.rule == Validate {
		c.Deliver(b, true)
		return
	}
	c.decideAll(b)
}

func (c *commitCluster) decideAll(payload any) {
	for _, decide := range c.decide {
		decide(consensus.Decision{Payload: payload})
	}
}

// numbered numbers txs from next on, as a run's clients do.
func numbered(next uint64, txs ...*chain.Transaction) []*chain.Transaction {
	for i, tx := range txs {
		tx.Num = next + uint64(i)
	}
	return txs
}

// event returns the hub's report of tx, if it made one.
func (c *commitCluster) event(tx *chain.Transaction) (Event, bool) {
	for _, ev := range c.events {
		if ev.TxID == tx.ID {
			return ev, true
		}
	}
	return Event{}, false
}

// TestCommitOrderExecute: a transaction that fails commits invalid with its
// abort code on every replica, what it wrote before failing stays, and the
// transactions around it execute at their own index.
func TestCommitOrderExecute(t *testing.T) {
	c := newCommitCluster(4, OrderExecute, nil)
	txs := numbered(1,
		txOf(1, set("k1", "v1")),
		txOf(2, set("k2", "v2"), get("missing"), set("k3", "v3")),
		txOf(3, set("k4", "v4")))
	c.commit(Block{Proposer: "p", FormedAt: clock.SimEpoch, Txs: txs})

	if len(c.events) != 3 {
		t.Fatalf("%d events, want one per transaction", len(c.events))
	}
	for i, tx := range txs {
		ev, _ := c.event(tx)
		wantValid, wantCode := i != 1, ""
		if !wantValid {
			wantCode = AbortKeyNotFound
		}
		if !ev.Committed || ev.ValidOK != wantValid || ev.Code != wantCode || ev.BlockNum != 1 {
			t.Errorf("tx %d: %+v; want committed, valid %v, code %q, block 1", i, ev, wantValid, wantCode)
		}
	}
	for r, rep := range c.Replicas() {
		if got := rep.Ledger.Head().Txs; len(got) != 3 {
			t.Errorf("replica %d sealed %d transactions, want all 3", r, len(got))
		}
		for key, txNum := range map[string]int{"k1": 0, "k2": 1, "k4": 2} {
			if v, ok := rep.State.Get(kv(key)); !ok || v.Version != (statestore.Version{BlockNum: 1, TxNum: txNum}) {
				t.Errorf("replica %d: %s = %+v, %v; want it written at {1 %d}", r, key, v, ok, txNum)
			}
		}
		if _, ok := rep.State.Get(kv("k3")); ok {
			t.Errorf("replica %d wrote k3, after the failing operation", r)
		}
	}
}

// TestCommitAtomic: a unit of which anything fails is discarded on every
// replica, unreported, and its operations count once; the sealed block omits
// it, and each survivor applies at its unit's index among the survivors.
func TestCommitAtomic(t *testing.T) {
	var dropped [][]uint64
	c := newCommitCluster(4, Atomic, func(r int, b Block) {
		var nums []uint64
		for _, bt := range b.Batches {
			nums = append(nums, bt.Num)
		}
		dropped = append(dropped, nums)
	})
	txs := numbered(1,
		txOf(1, set("a1", "v")), txOf(2, set("a2", "v")),
		txOf(3, set("b1", "v")), txOf(4, get("missing"), set("b2", "v")),
		txOf(5, set("c1", "v")), txOf(6, set("c2", "v")))
	batches := []*chain.Batch{chain.NewBatch(txs[0:2]...), chain.NewBatch(txs[2:4]...), chain.NewBatch(txs[4:6]...)}
	c.commit(Block{Proposer: "p", FormedAt: clock.SimEpoch, Txs: txs, Batches: batches})

	if got, want := c.DiscardedOps(), uint64(3); got != want {
		t.Errorf("DiscardedOps = %d, want the discarded batch's %d, counted once", got, want)
	}
	if len(c.events) != 4 {
		t.Errorf("%d events, want the 4 survivors'", len(c.events))
	}
	for i, tx := range txs {
		if _, ok := c.event(tx); ok != (i < 2 || i > 3) {
			t.Errorf("tx %d reported %v", i, ok)
		}
		if tx.Stages.At(chain.StageConsensus) == 0 {
			t.Errorf("tx %d has no consensus mark: the rule marks the discarded too", i)
		}
	}
	want := fmt.Sprint(append(txs[:2:2], txs[4:]...))
	for r, rep := range c.Replicas() {
		if got := fmt.Sprint(rep.Ledger.Head().Txs); got != want {
			t.Errorf("replica %d sealed %s, want the survivors %s", r, got, want)
		}
		for key, txNum := range map[string]int{"a1": 0, "a2": 0, "c1": 1, "c2": 1} {
			if v, ok := rep.State.Get(kv(key)); !ok || v.Version != (statestore.Version{BlockNum: 1, TxNum: txNum}) {
				t.Errorf("replica %d: %s = %+v, %v; want it written at {1 %d}", r, key, v, ok, txNum)
			}
		}
		if _, ok := rep.State.Get(kv("b1")); ok {
			t.Errorf("replica %d applied the discarded batch", r)
		}
	}
	if fmt.Sprint(dropped) != fmt.Sprint([][]uint64{{1, 3, 5}, {1, 3, 5}, {1, 3, 5}, {1, 3, 5}}) {
		t.Errorf("after ran with batches %v, want every batch on every replica", dropped)
	}
}

// TestCommitValidate: a transaction whose read went stale in the same block
// commits invalid with AbortMVCCConflict and writes nothing.
func TestCommitValidate(t *testing.T) {
	c := newCommitCluster(4, Validate, nil)
	if err := c.Preload([]chain.Operation{set("k", "v0")}); err != nil {
		t.Fatal(err)
	}
	envelope := func(tx *chain.Transaction, value string) Envelope {
		rw := statestore.NewRWSet()
		rw.Read(kv("k"), c.WorldState(0))
		rw.Write(kv("k"), value)
		return Envelope{Tx: tx, RWSet: rw}
	}
	txs := numbered(1, txOf(1, set("k", "v1")), txOf(2, set("k", "v2")))
	envs := []Envelope{envelope(txs[0], "v1"), envelope(txs[1], "v2")}
	c.Deliver(Block{Proposer: "p", FormedAt: clock.SimEpoch, Txs: txs, Envelopes: envs}, true)

	first, _ := c.event(txs[0])
	stale, _ := c.event(txs[1])
	if !first.ValidOK || !stale.Committed || stale.ValidOK || stale.Code != AbortMVCCConflict {
		t.Errorf("events %+v, %+v; want the first valid, the second committed invalid as %s", first, stale, AbortMVCCConflict)
	}
	for r := range c.Replicas() {
		if v, _ := c.WorldState(r).Get(kv("k")); v.Value != "v1" || v.Version != (statestore.Version{BlockNum: 1}) {
			t.Errorf("replica %d: k = %+v, want v1 at {1 0}", r, v)
		}
	}
	quiet := numbered(3, txOf(3))
	c.Deliver(Block{Proposer: "p", FormedAt: clock.SimEpoch, Txs: quiet, Envelopes: []Envelope{{Tx: quiet[0], RWSet: statestore.NewRWSet()}}}, false)
	if len(c.events) != 2 || c.Ledger(0).Height() != 2 {
		t.Errorf("an unreported delivery: %d events, height %d; want 2 events and the block appended", len(c.events), c.Ledger(0).Height())
	}
}

// TestCommitReplaysCrashedReplica: a crashed replica's gate buffers its
// decisions, and its restart commits them through the same path, in
// decision order, to the chain and state the others hold; the hub
// finalizes only then.
func TestCommitReplaysCrashedReplica(t *testing.T) {
	for _, rule := range []ExecRule{OrderExecute, Atomic} {
		c := newCommitCluster(4, rule, nil)
		c.Node(2).Gate.Crash()
		for i := uint64(1); i <= 3; i++ {
			c.commit(Block{Proposer: "p", FormedAt: clock.SimEpoch.Add(time.Duration(i)), Txs: numbered(i, txOf(i, set("k", strconv.Itoa(int(i)))))})
		}
		if len(c.events) != 0 || c.Ledger(2).Height() != 0 {
			t.Fatalf("rule %d: %d events and height %d while replica 2 is down", rule, len(c.events), c.Ledger(2).Height())
		}
		restartOut(c.clk, &c.Node(2).Gate)
		if len(c.events) != 3 {
			t.Fatalf("rule %d: %d events after the restart, want 3", rule, len(c.events))
		}
		for h := uint64(1); h <= 3; h++ {
			got, _ := c.Ledger(2).BlockAt(h)
			want, _ := c.Ledger(0).BlockAt(h)
			if got != want {
				t.Errorf("rule %d: replica 2 holds %v at height %d, replica 0 %v", rule, got, h, want)
			}
		}
		if got, want := fmt.Sprint(c.WorldState(2).Get(kv("k"))), fmt.Sprint(c.WorldState(0).Get(kv("k"))); got != want {
			t.Errorf("rule %d: replica 2 holds k = %s, replica 0 %s", rule, got, want)
		}
	}
}

// commitBlocks builds blocks+1 blocks of size transactions numbered apart —
// one per AllocsPerRun call, its warm-up included — each transaction setting
// its own key and, with fail, every tenth failing under the rule.
func commitBlocks(blocks, size int, rule ExecRule, fail bool) []Block {
	out := make([]Block, blocks+1)
	num, empty := uint64(1), statestore.NewKVStore()
	for b := range out {
		txs := make([]*chain.Transaction, size)
		envs := make([]Envelope, size)
		for i := range txs {
			key := "k" + strconv.Itoa(i)
			op := set(key, strconv.Itoa(b))
			if fail && i%10 == 9 {
				op = get("missing")
			}
			txs[i] = txOf(num, op)
			txs[i].Num = num
			num++
			rw := statestore.NewRWSet()
			rw.Read(kv("absent-"+key), empty) // valid while absent
			rw.Write(kv(key), strconv.Itoa(b))
			envs[i] = Envelope{Tx: txs[i], RWSet: rw}
		}
		out[b] = Block{Proposer: "p", FormedAt: clock.SimEpoch, Txs: txs}
		if rule == Validate {
			out[b].Envelopes = envs
		}
	}
	return out
}

// TestCommitPathAllocs pins what committing a 100-transaction block costs on
// each of 4 replicas beyond the one seal they share and the error each
// failing operation makes (the execution plane's, see TestReplicaAllocs):
// nothing per transaction under any rule, and under Atomic the survivor
// slice alone, once per replica.
func TestCommitPathAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the block seal hashes through hasherPool, which the race detector drains at random")
	}
	const runs, size, n = 100, 100, 4
	prev := chain.Genesis("fake")
	sealTxs := commitBlocks(0, size, OrderExecute, false)[0].Txs
	seal := testing.AllocsPerRun(runs, func() { chain.NewBlock(prev, "p", clock.SimEpoch, sealTxs) })
	r, failing := &testReplicas(1)[0], txOf(0, get("missing"))
	failure := testing.AllocsPerRun(runs, func() { _ = r.executeTx(failing, 1, 0) })
	for _, c := range []struct {
		name string
		rule ExecRule
		fail bool
		max  float64 // beyond the seal, per replica
	}{
		{"OrderExecute", OrderExecute, true, 0},
		{"Atomic", Atomic, false, 1},
		{"Atomic/discard", Atomic, true, 1},
		{"Validate", Validate, false, 0},
	} {
		cl := newCommitCluster(n, c.rule, func(int, Block) {})
		cl.Subscribe("c", func(Event) {})
		payloads := make([]any, runs+1)
		for i, b := range commitBlocks(runs, size, c.rule, c.fail) {
			payloads[i] = b
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if c.rule == Validate {
				cl.Deliver(payloads[i].(Block), true)
			} else {
				cl.decideAll(payloads[i])
			}
			i++
		})
		fails := 0.0
		if c.fail {
			fails = size / 10
		}
		if want := seal + n*(c.max+fails*failure); got > want {
			t.Errorf("%s: %v allocations per block on %d replicas, want at most %v: the seal's %v, and per replica %v and %v per failing operation",
				c.name, got, n, want, seal, c.max, failure)
		}
	}
}

// BenchmarkCommitPath commits a 100-transaction block on 4 replicas under
// each rule, a tenth of it failing under OrderExecute and Atomic. The
// blocks come round from a ring, each time renumbered with its marks
// cleared, so every commit reaches the hub and the stage marks as a fresh
// block would.
func BenchmarkCommitPath(b *testing.B) {
	for _, rule := range []struct {
		name string
		rule ExecRule
	}{{"OrderExecute", OrderExecute}, {"Atomic", Atomic}, {"Validate", Validate}} {
		b.Run(rule.name, func(b *testing.B) {
			cl := newCommitCluster(4, rule.rule, nil)
			cl.Subscribe("c", func(Event) {})
			ring := commitBlocks(15, 100, rule.rule, rule.rule != Validate)
			num := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk := ring[i%len(ring)]
				for _, tx := range blk.Txs {
					num++
					tx.Num, tx.Stages = num, chain.StageTrace{}
				}
				cl.commit(blk)
			}
		})
	}
}
