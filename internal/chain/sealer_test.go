package chain

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

// sameBlock reports whether two blocks agree field for field.
func sameBlock(a, b *Block) bool {
	return a.Number == b.Number && a.PrevHash == b.PrevHash && a.Timestamp == b.Timestamp &&
		a.Proposer == b.Proposer && a.TxRoot == b.TxRoot && a.Hash == b.Hash && slices.Equal(a.Txs, b.Txs)
}

// TestSealerMatchesNewBlock drives n ledgers through random block sequences:
// every replica appends one shared block per height, and that block is field
// for field what a fresh NewBlock builds on the replica's own head.
func TestSealerMatchesNewBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		const n = 5
		var s Sealer
		ledgers := make([]*Ledger, n)
		for i := range ledgers {
			ledgers[i] = NewLedger("sealer-test")
		}
		nonce := uint64(0)
		for height := 1; height <= 3*sealerSlots; height++ {
			txs := make([]*Transaction, rng.Intn(6)) // empty blocks too
			for i := range txs {
				nonce++
				txs[i] = NewSingleOp("c", nonce, "keyvalue", "Set", "k", "v")
			}
			ts := time.Unix(int64(height), int64(rng.Intn(1000)))
			var first *Block
			for i, l := range ledgers {
				// Each replica hands over a slice of its own, as the drivers
				// whose engines copy the payload do.
				mine := append([]*Transaction(nil), txs...)
				b := s.Seal(l.Head(), "proposer", ts, mine)
				if fresh := NewBlock(l.Head(), "proposer", ts, mine); !sameBlock(b, fresh) {
					t.Fatalf("trial %d height %d replica %d: sealed block differs from NewBlock", trial, height, i)
				}
				if first == nil {
					first = b
				} else if b != first {
					t.Fatalf("trial %d height %d replica %d: got a block of its own, want the shared one", trial, height, i)
				}
				if err := l.Append(b); err != nil {
					t.Fatalf("trial %d height %d replica %d: %v", trial, height, i, err)
				}
			}
		}
		for i, l := range ledgers {
			if err := l.Verify(); err != nil {
				t.Fatalf("replica %d: %v", i, err)
			}
			if l.Head().Hash != ledgers[0].Head().Hash {
				t.Fatalf("replica %d diverged", i)
			}
		}
	}
}

// TestSealerNeverSharesAcrossInputs: a replica whose head, transaction set,
// timestamp or proposer differs from the remembered block's gets a block
// built from its own inputs.
func TestSealerNeverSharesAcrossInputs(t *testing.T) {
	var s Sealer
	g := Genesis("a")
	txs := benchTxs(4)
	ts := time.Unix(10, 0)
	shared := s.Seal(g, "p", ts, txs)

	reordered := []*Transaction{txs[1], txs[0], txs[2], txs[3]}
	// The same content under another pointer is another transaction to the
	// memo: it matches on identity, never on a recomputed digest.
	twin := benchTxs(4)[3]
	if twin.ID != txs[3].ID {
		t.Fatal("twin transaction has another ID")
	}
	retwinned := []*Transaction{txs[0], txs[1], txs[2], twin}
	cases := []struct {
		name     string
		prev     *Block
		proposer string
		ts       time.Time
		txs      []*Transaction
	}{
		{"other head", Genesis("b"), "p", ts, txs},
		{"other proposer", g, "q", ts, txs},
		{"other instant", g, "p", ts.Add(1), txs},
		{"same instant, other location", g, "p", ts.In(time.FixedZone("x", 3600)), txs},
		{"fewer txs", g, "p", ts, txs[:3]},
		{"no txs", g, "p", ts, nil},
		{"reordered txs", g, "p", ts, reordered},
		{"twin tx", g, "p", ts, retwinned},
	}
	for _, c := range cases {
		got := s.Seal(c.prev, c.proposer, c.ts, c.txs)
		if got == shared {
			t.Errorf("%s: received the other replica's block", c.name)
		}
		if want := NewBlock(c.prev, c.proposer, c.ts, c.txs); !sameBlock(got, want) {
			t.Errorf("%s: block differs from NewBlock", c.name)
		}
		if err := got.VerifyLink(c.prev); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if got := s.Seal(nil, "p", ts, txs); got.Number != 0 || !sameBlock(got, NewBlock(nil, "p", ts, txs)) {
		t.Error("nil predecessor: block differs from NewBlock")
	}
}

// TestSealerLaggingReplica: a restarted replica replaying heights the ring
// has moved past re-seals exactly the blocks it would have built, and does
// not evict the block the up-to-date replicas are sharing.
func TestSealerLaggingReplica(t *testing.T) {
	var s Sealer
	live, lagging := NewLedger("net"), NewLedger("net")
	const heights = 2*sealerSlots + 3
	decided := make([][]*Transaction, heights)
	for h := range decided {
		decided[h] = []*Transaction{NewSingleOp("c", uint64(h), "keyvalue", "Set", "k", "v")}
		if err := live.Append(s.Seal(live.Head(), "p", time.Unix(int64(h), 0), decided[h])); err != nil {
			t.Fatal(err)
		}
	}
	next := []*Transaction{NewSingleOp("c", heights, "keyvalue", "Set", "k", "v")}
	current := s.Seal(live.Head(), "p", time.Unix(heights, 0), next)

	for h := range decided {
		b := s.Seal(lagging.Head(), "p", time.Unix(int64(h), 0), decided[h])
		want, _ := live.BlockAt(uint64(h + 1))
		if !sameBlock(b, want) {
			t.Fatalf("height %d: replayed block differs from the one committed live", h+1)
		}
		if err := lagging.Append(b); err != nil {
			t.Fatal(err)
		}
		if again := s.Seal(live.Head(), "p", time.Unix(heights, 0), next); again != current {
			t.Fatalf("replay of height %d evicted the current height's block", h+1)
		}
	}
	if got := s.Seal(lagging.Head(), "p", time.Unix(heights, 0), next); got != current {
		t.Fatal("caught-up replica did not receive the shared block")
	}
}

// TestSealerConcurrentReplicas appends through one Sealer from n replica
// events on one clock, each at its own pace, so they seal the same heights
// interleaved and apart (run under -race).
func TestSealerConcurrentReplicas(t *testing.T) {
	const n, heights = 8, 200
	clk := clocktest.New(t)
	var s Sealer
	decided := make([][]*Transaction, heights)
	for h := range decided {
		decided[h] = benchTxs(h % 7)
	}
	ledgers := make([]*Ledger, n)
	names := make([]string, n)
	for i := range ledgers {
		ledgers[i] = NewLedger("net")
		names[i] = fmt.Sprintf("replica-%d", i)
	}
	next := make([]int, n) // each replica's next height
	clocktest.Steps(t, clk, time.Minute, "replicas sealing", names, func(i int) (time.Duration, bool) {
		l, h := ledgers[i], next[i]
		if h == heights {
			return 0, true
		}
		if err := l.Append(s.Seal(l.Head(), "p", time.Unix(int64(h), 0), decided[h])); err != nil {
			t.Error(err)
			return 0, true
		}
		next[i]++
		return time.Duration(1+i) * time.Microsecond, false
	})
	for i, l := range ledgers {
		if err := l.Verify(); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if l.Height() != heights || l.Head().Hash != ledgers[0].Head().Hash {
			t.Fatalf("replica %d: height %d, head differs from replica 0", i, l.Height())
		}
	}
}
