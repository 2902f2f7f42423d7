package quorum

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// TestScrubIsNoAdmission pins the pool's admission counter to what was
// actually admitted: every validator admits each transaction once (from the
// client or from gossip), and scrubbing a backlog across several blocks
// neither re-admits what stays queued nor leaves anything included behind.
func TestScrubIsNoAdmission(t *testing.T) {
	const txs = 12
	env := systemstest.Env(t)
	cfg := calibrate(env, systems.Params{})
	cfg.maxBlockTxs = 2 // six blocks, five scrubs over a backlog
	n := build(env, cfg)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	for i := 0; i < txs; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, txs, 10*time.Second)
	if h := n.Ledger(0).Height(); h < txs/2 {
		t.Fatalf("chain height %d: the backlog was not spread over several blocks", h)
	}
	deadline := env.Clock.Now().Add(10 * time.Second)
	for _, v := range n.validators {
		for {
			admitted, _ := v.pool.Stats()
			if admitted == txs && v.pool.Len() == 0 {
				break
			}
			if admitted > txs {
				t.Fatalf("%s: %d admissions of %d transactions: a scrub re-admitted the backlog", v.ID, admitted, txs)
			}
			if env.Clock.Now().After(deadline) {
				t.Fatalf("%s: admitted %d, %d still queued", v.ID, admitted, v.pool.Len())
			}
			env.Clock.Sleep(2 * time.Millisecond)
		}
	}
}

// TestScrubReusesItsSet: scrubbing removes exactly the included
// transactions, and a later block's scrub reuses the validator's set
// instead of allocating one per block.
func TestScrubReusesItsSet(t *testing.T) {
	env := systemstest.Env(t)
	n := build(env, calibrate(env, systems.Params{}))
	v := n.validators[0]
	var queued []*chain.Transaction
	for i := 0; i < 128; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := v.pool.Add(tx); err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tx)
	}
	block := queued[:64]
	n.scrubPool(v, block)
	if left := v.pool.Peek(0); len(left) != 64 || left[0] != queued[64] {
		t.Fatalf("after scrubbing 64 of 128 the pool holds %d, want the last 64", len(left))
	}
	if allocs := testing.AllocsPerRun(100, func() { n.scrubPool(v, block) }); allocs != 0 {
		t.Fatalf("a scrub allocates %v, want 0", allocs)
	}
	if v.pool.Len() != 64 {
		t.Fatalf("re-scrubbing removed transactions the block did not include: %d left", v.pool.Len())
	}
}

// TestGossipAdmitsOncePerValidator: a transaction gossiped twice to one
// validator enters its pool once, and that validator's admission hides the
// transaction from no other validator, all of which share one index.
func TestGossipAdmitsOncePerValidator(t *testing.T) {
	env := systemstest.Env(t)
	cfg := calibrate(env, systems.Params{})
	cfg.blockPeriod = time.Hour // no block takes the transaction out of a pool
	n := build(env, cfg)
	systemstest.Start(t, n)
	tx := chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing)
	entry, twice := n.validators[0], n.validators[1]
	if err := n.Submit(0, tx); err != nil { // admits at the entry, gossips to the rest
		t.Fatal(err)
	}
	if err := n.Transport.Send(entry.gossip, twice.gossip, "quorum.tx", tx); err != nil {
		t.Fatal(err)
	}
	env.Clock.Sleep(100 * time.Millisecond)
	for _, v := range n.validators {
		if admitted, _ := v.pool.Stats(); admitted != 1 || v.pool.Len() != 1 {
			t.Errorf("%s: %d admissions, %d queued; want the one transaction once", v.ID, admitted, v.pool.Len())
		}
	}
}
