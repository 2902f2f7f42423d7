package notary

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/crypto"
)

func ref(name string, idx int) chain.StateRef {
	return chain.StateRef{TxID: crypto.SumString(name), Index: idx}
}

func TestNotariseConsumesInputs(t *testing.T) {
	s := NewService("notary-1")
	tx1 := crypto.SumString("tx1")
	if err := s.Notarise(tx1, []chain.StateRef{ref("a", 0), ref("a", 1)}); err != nil {
		t.Fatal(err)
	}
	if s.ConsumedCount() != 2 {
		t.Fatalf("consumed = %d, want 2", s.ConsumedCount())
	}
	by, ok := s.WasConsumed(ref("a", 0))
	if !ok || by != tx1 {
		t.Fatalf("WasConsumed = (%v,%v)", by, ok)
	}
}

func TestNotariseRejectsDoubleSpend(t *testing.T) {
	s := NewService("notary-1")
	tx1, tx2 := crypto.SumString("tx1"), crypto.SumString("tx2")
	if err := s.Notarise(tx1, []chain.StateRef{ref("a", 0)}); err != nil {
		t.Fatal(err)
	}
	err := s.Notarise(tx2, []chain.StateRef{ref("a", 0)})
	var dse *chain.DoubleSpendError
	if !errors.As(err, &dse) {
		t.Fatalf("err = %v, want DoubleSpendError", err)
	}
	if dse.ConsumedBy != tx1 {
		t.Fatal("error must name the earlier consumer")
	}
}

func TestNotariseAtomicOnConflict(t *testing.T) {
	s := NewService("n")
	tx1, tx2 := crypto.SumString("tx1"), crypto.SumString("tx2")
	if err := s.Notarise(tx1, []chain.StateRef{ref("x", 0)}); err != nil {
		t.Fatal(err)
	}
	// tx2 has one fresh and one conflicting input: nothing must be consumed.
	err := s.Notarise(tx2, []chain.StateRef{ref("y", 0), ref("x", 0)})
	if err == nil {
		t.Fatal("conflicting notarisation accepted")
	}
	if _, ok := s.WasConsumed(ref("y", 0)); ok {
		t.Fatal("partial consumption on conflict (not atomic)")
	}
}

func TestNotariseEmptyInputs(t *testing.T) {
	s := NewService("n")
	// Issuance transactions have no inputs; the notary accepts them.
	if err := s.Notarise(crypto.SumString("issue"), nil); err != nil {
		t.Fatal(err)
	}
}

// TestNotariseConcurrentOnlyOneWins: flow events on one clock race to
// notarise the same input, each in its own turn; the first to arrive
// consumes it, and every later one is told which transaction did.
func TestNotariseConcurrentOnlyOneWins(t *testing.T) {
	const contenders = 16
	clk := clocktest.New(t)
	s := NewService("n")
	txIDs := make([]crypto.Hash, contenders)
	names := make([]string, contenders)
	for i := range txIDs {
		txIDs[i] = crypto.TxID("racer", uint64(i), nil)
		names[i] = fmt.Sprintf("flow-%d", i)
	}
	winner := txIDs[contenders-1] // sleeps least, so arrives first
	wins := 0
	slept := make([]bool, contenders)
	clocktest.Steps(t, clk, time.Second, "racers", names, func(i int) (time.Duration, bool) {
		if !slept[i] {
			slept[i] = true
			return time.Duration(contenders-i) * time.Microsecond, false
		}
		err := s.Notarise(txIDs[i], []chain.StateRef{ref("contested", 0)})
		var ds *chain.DoubleSpendError
		switch {
		case err == nil:
			wins++
		case !errors.As(err, &ds) || ds.ConsumedBy != winner:
			t.Errorf("racer %d: err = %v, want a double spend naming the first racer", i, err)
		}
		return 0, true
	})
	if wins != 1 {
		t.Fatalf("%d racers consumed the same state, want exactly 1", wins)
	}
	if by, ok := s.WasConsumed(ref("contested", 0)); !ok || by != winner {
		t.Fatalf("contested state consumed by %v (%v), want the first racer", by.Short(), ok)
	}
}
