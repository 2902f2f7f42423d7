package chain

import (
	"fmt"
	"testing"
	"time"
)

func benchTxs(n int) []*Transaction {
	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i] = NewSingleOp("bench", uint64(i), "keyvalue", "Set", fmt.Sprintf("k%d", i), "v")
	}
	return txs
}

// BenchmarkTxDigest measures recomputing a transaction's content digest
// (operation digests + Merkle fold + ID derivation), the hash work every
// Verify and every driver admission path repeats per transaction.
func BenchmarkTxDigest(b *testing.B) {
	tx := NewSingleOp("bench", 1, "keyvalue", "Set", "key", "value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tx.computeID() != tx.ID {
			b.Fatal("digest mismatch")
		}
	}
}

func BenchmarkTransactionID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewSingleOp("bench", uint64(i), "keyvalue", "Set", "key", "value")
	}
}

func BenchmarkBlockSeal(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		txs := benchTxs(size)
		g := Genesis("bench")
		b.Run(fmt.Sprintf("txs=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = NewBlock(g, "p", time.Unix(0, 0), txs)
			}
		})
	}
}

// BenchmarkSealerSharedN4/N32 measure what one decided 100-transaction block
// costs a whole network to seal and append: n replicas through one Sealer,
// against n times BenchmarkBlockSeal/txs=100 without it.
func BenchmarkSealerSharedN4(b *testing.B)  { benchSealerShared(b, 4) }
func BenchmarkSealerSharedN32(b *testing.B) { benchSealerShared(b, 32) }

func benchSealerShared(b *testing.B, n int) {
	txs := benchTxs(100)
	var s Sealer
	ledgers := make([]*Ledger, n)
	for i := range ledgers {
		ledgers[i] = NewLedger("bench")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range ledgers {
			if err := l.Append(s.Seal(l.Head(), "p", time.Unix(0, 0), txs)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkLedgerAppend(b *testing.B) {
	txs := benchTxs(100)
	b.ReportAllocs()
	b.ResetTimer()
	l := NewLedger("bench")
	for i := 0; i < b.N; i++ {
		blk := NewBlock(l.Head(), "p", time.Unix(0, 0), txs)
		if err := l.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVaultApply(b *testing.B) {
	b.ReportAllocs()
	v := NewVault()
	for i := 0; i < b.N; i++ {
		tx := NewUTXOTransaction("bench", uint64(i),
			Operation{IEL: "keyvalue", Function: "Set"},
			nil,
			[]ContractState{{Kind: "kv", Key: fmt.Sprintf("k%d", i), Value: "v"}},
		)
		if err := v.Apply(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVaultLinearScan(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		v := NewVault()
		for i := 0; i < size; i++ {
			tx := NewUTXOTransaction("bench", uint64(i),
				Operation{IEL: "keyvalue", Function: "Set"},
				nil,
				[]ContractState{{Kind: "kv", Key: fmt.Sprintf("k%d", i), Value: "v"}},
			)
			if err := v.Apply(tx); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("states=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Worst case: the key is the last state, full scan.
				key := fmt.Sprintf("k%d", size-1)
				if n := v.LinearScan(func(_ StateRef, st ContractState) bool { return st.Key == key }); n != size {
					b.Fatalf("scan visited %d of %d states", n, size)
				}
			}
		})
	}
}
