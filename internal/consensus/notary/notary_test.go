package notary

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
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

// TestNotariseConcurrentOnlyOneWins: flow actors on one clock race to
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
	clock.Go(clk, names, func(i int) {
		clk.Sleep(time.Duration(contenders-i) * time.Microsecond)
		err := s.Notarise(txIDs[i], []chain.StateRef{ref("contested", 0)})
		var ds *chain.DoubleSpendError
		switch {
		case err == nil:
			wins++
		case !errors.As(err, &ds) || ds.ConsumedBy != winner:
			t.Errorf("racer %d: err = %v, want a double spend naming the first racer", i, err)
		}
	})()
	if wins != 1 {
		t.Fatalf("%d racers consumed the same state, want exactly 1", wins)
	}
	if by, ok := s.WasConsumed(ref("contested", 0)); !ok || by != winner {
		t.Fatalf("contested state consumed by %v (%v), want the first racer", by.Short(), ok)
	}
}

func TestCollectSignaturesSerial(t *testing.T) {
	parties := []string{"node-0", "node-1", "node-2", "node-3"}
	var order []string
	sigs, err := CollectSignatures(clocktest.New(t), Serial, parties, crypto.SumString("tx"),
		func(p string, txID crypto.Hash) (crypto.Signature, error) {
			order = append(order, p)
			return crypto.Signature{Signer: p}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 4 {
		t.Fatalf("got %d signatures", len(sigs))
	}
	for i, p := range parties {
		if order[i] != p {
			t.Fatalf("serial order[%d] = %s, want %s", i, order[i], p)
		}
		if sigs[i].Signer != p {
			t.Fatalf("sig[%d] = %s", i, sigs[i].Signer)
		}
	}
}

func TestCollectSignaturesSerialLatencyIsSum(t *testing.T) {
	parties := []string{"a", "b", "c", "d"}
	perParty := 20 * time.Millisecond
	clk := clocktest.New(t)
	start := clk.Now()
	_, err := CollectSignatures(clk, Serial, parties, crypto.SumString("tx"),
		func(p string, _ crypto.Hash) (crypto.Signature, error) {
			clk.Sleep(perParty)
			return crypto.Signature{Signer: p}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := clk.Since(start); elapsed != 4*perParty {
		t.Fatalf("serial collection took %v, want the sum %v", elapsed, 4*perParty)
	}
}

func TestCollectSignaturesParallelLatencyIsMax(t *testing.T) {
	parties := []string{"a", "b", "c", "d"}
	perParty := 30 * time.Millisecond
	clk := clocktest.New(t)
	start := clk.Now()
	sigs, err := CollectSignatures(clk, Parallel, parties, crypto.SumString("tx"),
		func(p string, _ crypto.Hash) (crypto.Signature, error) {
			clk.Sleep(perParty)
			return crypto.Signature{Signer: p}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := clk.Since(start); elapsed != perParty {
		t.Fatalf("parallel collection took %v, want the slowest party's %v", elapsed, perParty)
	}
	if len(sigs) != 4 {
		t.Fatalf("got %d signatures", len(sigs))
	}
	for i, p := range parties {
		if sigs[i].Signer != p {
			t.Fatalf("sig[%d].Signer = %s, want %s (order must be stable)", i, sigs[i].Signer, p)
		}
	}
}

func TestCollectSignaturesPropagatesError(t *testing.T) {
	wantErr := errors.New("party refused")
	clk := clocktest.New(t)
	for _, mode := range []SigningMode{Serial, Parallel} {
		_, err := CollectSignatures(clk, mode, []string{"a", "b"}, crypto.SumString("tx"),
			func(p string, _ crypto.Hash) (crypto.Signature, error) {
				if p == "b" {
					return crypto.Signature{}, wantErr
				}
				return crypto.Signature{Signer: p}, nil
			})
		if !errors.Is(err, wantErr) {
			t.Fatalf("mode %d: err = %v, want %v", mode, err, wantErr)
		}
	}
}
