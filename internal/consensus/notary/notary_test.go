package notary

import (
	"errors"
	"sync"
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

func TestNotariseConcurrentOnlyOneWins(t *testing.T) {
	s := NewService("n")
	const contenders = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	wins := 0
	for i := 0; i < contenders; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			txID := crypto.TxID("racer", uint64(i), nil)
			if err := s.Notarise(txID, []chain.StateRef{ref("contested", 0)}); err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d racers consumed the same state, want exactly 1", wins)
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
