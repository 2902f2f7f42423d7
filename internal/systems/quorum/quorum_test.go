package quorum

import (
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// TestBlockDropIsNoAdmission pins the pool's admission counter to what was
// actually admitted: every validator admits each transaction once (from the
// client or from gossip), and dropping a backlog's blocks one after another
// neither re-admits what stays queued nor leaves anything included behind.
func TestBlockDropIsNoAdmission(t *testing.T) {
	const txs = 12
	env := systemstest.Env(t)
	cfg := calibrate(env, systems.Params{})
	cfg.maxBlockTxs = 2 // six blocks, five drops from a backlog
	n := build(env, cfg)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	var nums systemstest.Numbers
	for i := 0; i < txs; i++ {
		tx := nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing))
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
			admitted, _ := n.pool.Stats(v.index)
			if admitted == txs && n.pool.Len(v.index) == 0 {
				break
			}
			if admitted > txs {
				t.Fatalf("%s: %d admissions of %d transactions: a block drop re-admitted the backlog", v.ID, admitted, txs)
			}
			if env.Clock.Now().After(deadline) {
				t.Fatalf("%s: admitted %d, %d still queued", v.ID, admitted, n.pool.Len(v.index))
			}
			env.Clock.Sleep(2 * time.Millisecond)
		}
	}
}

// TestBlockDropIsAllocationFree: a decided block drops exactly its own
// transactions from a validator's pool, leaves the rest in admission order,
// and neither it nor a repeat of it allocates.
func TestBlockDropIsAllocationFree(t *testing.T) {
	env := systemstest.Env(t)
	n := build(env, calibrate(env, systems.Params{}))
	v := n.validators[0]
	var nums systemstest.Numbers
	var queued []*chain.Transaction
	for i := 0; i < 128; i++ {
		tx := nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing))
		n.admit(v, tx)
		queued = append(queued, tx)
	}
	drop := func(block []*chain.Transaction) {
		for _, tx := range block {
			n.pool.Drop(v.index, tx.Num)
		}
	}
	block := queued[:64]
	drop(block)
	if l := n.pool.Len(v.index); l != 64 {
		t.Fatalf("after dropping 64 of 128 the pool holds %d, want 64", l)
	}
	if allocs := testing.AllocsPerRun(100, func() { drop(block) }); allocs != 0 {
		t.Fatalf("a block drop allocates %v, want 0", allocs)
	}
	if left := n.pool.Take(v.index, 0); !slices.Equal(left, queued[64:]) {
		t.Fatalf("after re-dropping, the pool holds %d, want the last 64 in order", len(left))
	}
}

// TestGossipAdmitsOncePerValidator: a transaction gossiped twice to one
// validator enters its pool once, and that validator's admission hides the
// transaction from no other validator, all of which share one pool.
func TestGossipAdmitsOncePerValidator(t *testing.T) {
	env := systemstest.Env(t)
	cfg := calibrate(env, systems.Params{})
	cfg.blockPeriod = time.Hour // no block takes the transaction out of a pool
	n := build(env, cfg)
	systemstest.Start(t, n)
	var nums systemstest.Numbers
	tx := nums.Next(chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing))
	entry, twice := n.validators[0], n.validators[1]
	if err := n.Submit(0, tx); err != nil { // admits at the entry, gossips to the rest
		t.Fatal(err)
	}
	if err := n.Transport.Send(entry.gossip, twice.gossip, "quorum.tx", tx); err != nil {
		t.Fatal(err)
	}
	env.Clock.Sleep(100 * time.Millisecond)
	for _, v := range n.validators {
		if admitted, _ := n.pool.Stats(v.index); admitted != 1 || n.pool.Len(v.index) != 1 {
			t.Errorf("%s: %d admissions, %d queued; want the one transaction once", v.ID, admitted, n.pool.Len(v.index))
		}
	}
}

// TestUnnumberedSubmitIsRefused: the pool knows a transaction by its number,
// so Submit refuses one without (Num 0) with ErrUnnumbered, and no validator
// admits or gossips it.
func TestUnnumberedSubmitIsRefused(t *testing.T) {
	env := systemstest.Env(t)
	n := build(env, calibrate(env, systems.Params{}))
	systemstest.Start(t, n)
	tx := chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); !errors.Is(err, systems.ErrUnnumbered) {
		t.Fatalf("Submit of an unnumbered transaction: err = %v, want ErrUnnumbered", err)
	}
	env.Clock.Sleep(100 * time.Millisecond)
	for _, v := range n.validators {
		if admitted, rejected := n.pool.Stats(v.index); n.pool.Len(v.index) != 0 || admitted != 0 || rejected != 0 {
			t.Errorf("%s: %d queued, %d admitted, %d rejected; want an untouched pool", v.ID, n.pool.Len(v.index), admitted, rejected)
		}
	}
	if !n.Drained() {
		t.Fatal("the network is not drained after a refused submission")
	}
}
