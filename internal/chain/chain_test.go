package chain

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/coconut-bench/coconut/internal/crypto"
)

func TestNewTransactionID(t *testing.T) {
	tx1 := NewSingleOp("client-1", 1, "keyvalue", "Set", "k", "v")
	tx2 := NewSingleOp("client-1", 1, "keyvalue", "Set", "k", "v")
	if tx1.ID != tx2.ID {
		t.Fatal("identical content must yield identical IDs")
	}
	tx3 := NewSingleOp("client-1", 2, "keyvalue", "Set", "k", "v")
	if tx1.ID == tx3.ID {
		t.Fatal("different seq must yield different IDs")
	}
}

// TestSingleOpTxIsNewTransaction: the one-allocation constructor derives
// NewTransaction's ID and hands the operation on as it is.
func TestSingleOpTxIsNewTransaction(t *testing.T) {
	op := Operation{IEL: "bankingapp", Function: "Balance", Args: []string{"a"}}
	tx := NewSingleOpTx("client-1", 9, op)
	if want := NewSingleOp("client-1", 9, op.IEL, op.Function, op.Args...); tx.ID != want.ID {
		t.Fatal("NewSingleOpTx and NewSingleOp derive different IDs for the same content")
	}
	if want := NewTransaction("client-1", 9, op); tx.ID != want.ID {
		t.Fatal("NewSingleOpTx and NewTransaction derive different IDs for the same content")
	}
	if err := tx.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(tx.Ops) != 1 || tx.Ops[0].String() != op.String() || &tx.Ops[0].Args[0] != &op.Args[0] {
		t.Fatalf("Ops = %+v, want the operation itself", tx.Ops)
	}
	if raceDetector {
		t.Skip("the allocation pin derives the ID through hasherPool, which the race detector drains at random")
	}
	if n := testing.AllocsPerRun(100, func() { tx = NewSingleOpTx("client-1", 9, op) }); n != 1 {
		t.Errorf("NewSingleOpTx allocates %v times, want 1", n)
	}
}

func TestTransactionVerify(t *testing.T) {
	tx := NewSingleOp("c", 1, "donothing", "DoNothing")
	if err := tx.Verify(); err != nil {
		t.Fatalf("valid tx rejected: %v", err)
	}
	tx.Ops[0].Args = []string{"tampered"}
	if err := tx.Verify(); err == nil {
		t.Fatal("tampered tx accepted")
	}
	empty := &Transaction{ID: crypto.SumString("x")}
	if err := empty.Verify(); err == nil {
		t.Fatal("tx without operations accepted")
	}
}

func TestTransactionOpCount(t *testing.T) {
	ops := make([]Operation, 50)
	for i := range ops {
		ops[i] = Operation{IEL: "donothing", Function: "DoNothing"}
	}
	tx := NewTransaction("c", 1, ops...)
	if tx.OpCount() != 50 {
		t.Fatalf("OpCount = %d, want 50", tx.OpCount())
	}
}

func TestOperationString(t *testing.T) {
	op := Operation{IEL: "keyvalue", Function: "Set", Args: []string{"k", "v"}}
	if got := op.String(); got != "keyvalue.Set(k,v)" {
		t.Fatalf("String = %q", got)
	}
}

func TestTxStatusString(t *testing.T) {
	cases := map[TxStatus]string{
		TxPending:    "pending",
		TxCommitted:  "committed",
		TxRejected:   "rejected",
		TxStatus(99): "TxStatus(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestBatch(t *testing.T) {
	txs := []*Transaction{
		NewSingleOp("c", 1, "donothing", "DoNothing"),
		NewSingleOp("c", 2, "donothing", "DoNothing"),
	}
	b := NewBatch(txs...)
	if b.Size() != 2 {
		t.Fatalf("Size = %d, want 2", b.Size())
	}
	b2 := NewBatch(txs...)
	if b.ID != b2.ID {
		t.Fatal("same members must yield same batch ID")
	}
}

func TestGenesisDiffersPerNetwork(t *testing.T) {
	a := Genesis("net-a")
	b := Genesis("net-b")
	if a.Hash == b.Hash {
		t.Fatal("genesis hash must depend on network ID")
	}
	if a.Number != 0 {
		t.Fatalf("genesis number = %d, want 0", a.Number)
	}
}

func TestBlockLinking(t *testing.T) {
	g := Genesis("net")
	txs := []*Transaction{NewSingleOp("c", 1, "donothing", "DoNothing")}
	b1 := NewBlock(g, "orderer-1", time.Now(), txs)
	if err := b1.VerifyLink(g); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	if b1.Number != 1 {
		t.Fatalf("number = %d, want 1", b1.Number)
	}
	b2 := NewBlock(b1, "orderer-1", time.Now(), nil)
	if err := b2.VerifyLink(g); err == nil {
		t.Fatal("skipped-height link accepted")
	}
	bad := NewBlock(g, "orderer-2", time.Now(), nil)
	bad.PrevHash = crypto.SumString("wrong")
	bad.Seal()
	if err := bad.VerifyLink(g); err == nil {
		t.Fatal("wrong prev hash accepted")
	}
}

func TestBlockOpCount(t *testing.T) {
	multi := NewTransaction("c", 1,
		Operation{IEL: "donothing", Function: "DoNothing"},
		Operation{IEL: "donothing", Function: "DoNothing"},
	)
	single := NewSingleOp("c", 2, "donothing", "DoNothing")
	b := NewBlock(Genesis("n"), "w", time.Now(), []*Transaction{multi, single})
	if got := b.OpCount(); got != 3 {
		t.Fatalf("OpCount = %d, want 3", got)
	}
	if got := b.TxCount(); got != 2 {
		t.Fatalf("TxCount = %d, want 2", got)
	}
}

func TestLedgerAppendAndLookup(t *testing.T) {
	l := NewLedger("net")
	tx := NewSingleOp("c", 1, "keyvalue", "Set", "k", "v")
	b := NewBlock(l.Head(), "orderer", time.Now(), []*Transaction{tx})
	if err := l.Append(b); err != nil {
		t.Fatal(err)
	}
	if l.Height() != 1 {
		t.Fatalf("height = %d, want 1", l.Height())
	}
	got, ok := l.BlockAt(1)
	if !ok || got.Hash != b.Hash {
		t.Fatal("BlockAt(1) mismatch")
	}
	if _, ok := l.BlockAt(99); ok {
		t.Fatal("BlockAt beyond head succeeded")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if l.TxCount() != 1 {
		t.Fatalf("TxCount = %d, want 1", l.TxCount())
	}
}

func TestLedgerRejectsBadLink(t *testing.T) {
	l := NewLedger("net")
	other := NewLedger("other")
	b := NewBlock(other.Head(), "x", time.Now(), nil)
	if err := l.Append(b); err == nil {
		t.Fatal("foreign block accepted")
	}
}

func TestLedgerBlocksSnapshot(t *testing.T) {
	l := NewLedger("net")
	blocks := l.Blocks()
	if len(blocks) != 1 {
		t.Fatalf("len = %d, want 1 (genesis)", len(blocks))
	}
	blocks[0] = nil // must not corrupt the ledger
	if l.Head() == nil {
		t.Fatal("snapshot mutation leaked into ledger")
	}
}

func TestVaultApplyAndDoubleSpend(t *testing.T) {
	v := NewVault()
	issue := NewUTXOTransaction("c", 1,
		Operation{IEL: "bankingapp", Function: "CreateAccount", Args: []string{"acc-0"}},
		nil,
		[]ContractState{{Kind: "account", Key: "acc-0", Value: "100", Owner: "c"}},
	)
	if err := v.Apply(issue); err != nil {
		t.Fatal(err)
	}
	if v.UnspentCount() != 1 {
		t.Fatalf("unspent = %d, want 1", v.UnspentCount())
	}

	spend := NewUTXOTransaction("c", 2,
		Operation{IEL: "bankingapp", Function: "SendPayment", Args: []string{"acc-0", "acc-1"}},
		[]StateRef{issue.Ref(0)},
		[]ContractState{{Kind: "account", Key: "acc-1", Value: "100", Owner: "c"}},
	)
	if err := v.Apply(spend); err != nil {
		t.Fatal(err)
	}
	if v.ConsumedCount() != 1 {
		t.Fatalf("consumed = %d, want 1", v.ConsumedCount())
	}

	double := NewUTXOTransaction("c", 3,
		Operation{IEL: "bankingapp", Function: "SendPayment", Args: []string{"acc-0", "acc-2"}},
		[]StateRef{issue.Ref(0)},
		nil,
	)
	err := v.Apply(double)
	var dse *DoubleSpendError
	if !errors.As(err, &dse) {
		t.Fatalf("err = %v, want DoubleSpendError", err)
	}
	if dse.ConsumedBy != spend.ID {
		t.Fatal("DoubleSpendError does not name the consuming tx")
	}
}

func TestVaultUnknownState(t *testing.T) {
	v := NewVault()
	tx := NewUTXOTransaction("c", 1,
		Operation{IEL: "x", Function: "y"},
		[]StateRef{{TxID: crypto.SumString("ghost"), Index: 0}},
		nil,
	)
	err := v.Apply(tx)
	var use *UnknownStateError
	if !errors.As(err, &use) {
		t.Fatalf("err = %v, want UnknownStateError", err)
	}
}

func TestVaultApplyAtomicOnFailure(t *testing.T) {
	v := NewVault()
	issue := NewUTXOTransaction("c", 1, Operation{IEL: "x", Function: "y"},
		nil, []ContractState{{Kind: "k", Key: "a"}})
	if err := v.Apply(issue); err != nil {
		t.Fatal(err)
	}
	// One valid input plus one unknown input: nothing may be consumed.
	bad := NewUTXOTransaction("c", 2, Operation{IEL: "x", Function: "y"},
		[]StateRef{issue.Ref(0), {TxID: crypto.SumString("ghost"), Index: 0}},
		nil,
	)
	if err := v.Apply(bad); err == nil {
		t.Fatal("partially-invalid tx accepted")
	}
	if v.UnspentCount() != 1 {
		t.Fatal("failed Apply consumed states (not atomic)")
	}
}

func TestVaultLinearScanVisitsInOrder(t *testing.T) {
	v := NewVault()
	for i := 0; i < 10; i++ {
		tx := NewUTXOTransaction("c", uint64(i+1),
			Operation{IEL: "keyvalue", Function: "Set"},
			nil,
			[]ContractState{{Kind: "kv", Key: string(rune('a' + i)), Value: "v"}},
		)
		if err := v.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	// Finding the last key must visit all 10 states (the paper's Corda read
	// pathology).
	visited := v.LinearScan(func(_ StateRef, st ContractState) bool {
		return st.Key == "j"
	})
	if visited != 10 {
		t.Fatalf("visited = %d, want 10 (full scan)", visited)
	}
	visited = v.LinearScan(func(_ StateRef, st ContractState) bool {
		return st.Key == "a"
	})
	if visited != 1 {
		t.Fatalf("visited = %d, want 1 (early exit)", visited)
	}
}

func TestVaultGet(t *testing.T) {
	v := NewVault()
	tx := NewUTXOTransaction("c", 1, Operation{IEL: "kv", Function: "Set"},
		nil, []ContractState{{Kind: "kv", Key: "k", Value: "v"}})
	if err := v.Apply(tx); err != nil {
		t.Fatal(err)
	}
	st, ok := v.Get(tx.Ref(0))
	if !ok || st.Value != "v" {
		t.Fatalf("Get = (%+v, %v)", st, ok)
	}
	if _, ok := v.Get(StateRef{TxID: crypto.SumString("no"), Index: 0}); ok {
		t.Fatal("Get returned a missing state")
	}
}

// Property: a chain built by repeated NewBlock always verifies.
func TestPropertyChainAlwaysVerifies(t *testing.T) {
	f := func(n uint8) bool {
		l := NewLedger("prop")
		for i := 0; i < int(n%32); i++ {
			tx := NewSingleOp("c", uint64(i), "donothing", "DoNothing")
			b := NewBlock(l.Head(), "p", time.Now(), []*Transaction{tx})
			if err := l.Append(b); err != nil {
				return false
			}
		}
		return l.Verify() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: vault unspent+consumed counts are conserved across applies.
func TestPropertyVaultConservation(t *testing.T) {
	f := func(spends []bool) bool {
		v := NewVault()
		var refs []StateRef
		seq := uint64(0)
		for i, spend := range spends {
			seq++
			if spend && len(refs) > 0 {
				in := refs[0]
				refs = refs[1:]
				tx := NewUTXOTransaction("c", seq, Operation{IEL: "x", Function: "s"},
					[]StateRef{in}, []ContractState{{Kind: "k", Key: string(rune(i))}})
				if err := v.Apply(tx); err != nil {
					return false
				}
				refs = append(refs, tx.Ref(0))
			} else {
				tx := NewUTXOTransaction("c", seq, Operation{IEL: "x", Function: "i"},
					nil, []ContractState{{Kind: "k", Key: string(rune(i))}})
				if err := v.Apply(tx); err != nil {
					return false
				}
				refs = append(refs, tx.Ref(0))
			}
		}
		return v.UnspentCount() == len(refs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// chainOf builds n linked blocks of perBlock transactions on top of the
// ledger's head without appending them.
func chainOf(l *Ledger, n, perBlock int) []*Block {
	blocks := make([]*Block, n)
	prev := l.Head()
	seq := uint64(0)
	for i := range blocks {
		txs := make([]*Transaction, perBlock)
		for j := range txs {
			seq++
			txs[j] = NewSingleOp("c", seq, "donothing", "DoNothing")
		}
		blocks[i] = NewBlock(prev, "orderer", time.Unix(int64(i), 0), txs)
		prev = blocks[i]
	}
	return blocks
}

// TestLedgerAppendAllocatesNothing: a replica's Append keeps no per-block
// state beyond the block itself.
func TestLedgerAppendAllocatesNothing(t *testing.T) {
	const runs = 200
	l := NewLedger("net")
	blocks := chainOf(l, runs+2, 4)
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := l.Append(blocks[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 0 { // the block slice's doublings, eight in 200 appends, average to 0
		t.Errorf("Append allocates %v times per block, want 0", n)
	}
}
