package chain

import (
	"slices"
	"time"
)

// sealerSlots is how many recent heights a Sealer remembers. Replicas of one
// network commit a decision within a few blocks of each other (a WAL's
// append latency spreads them); one that falls further behind seals for
// itself.
const sealerSlots = 16

// Sealer builds the blocks of one network's replicas. Every replica commits
// every decided block, and the block a replica builds is a pure function of
// its head and the decision, so the n replicas of a network would seal n
// identical blocks; a Sealer hands the second and later callers the block
// the first one built. The zero value is ready to use.
//
// A remembered block is returned only when its height, PrevHash, proposer,
// timestamp and transaction pointers all equal the caller's — exactly the
// inputs NewBlock hashes — so a replica on a different head, or one whose
// surviving-transaction set differs, gets a block of its own, and
// Ledger.Append still verifies the link on every replica. Blocks are
// immutable once returned.
type Sealer struct {
	ring [sealerSlots]*Block
}

// Seal returns the block NewBlock(prev, proposer, ts, txs) would build; txs
// must not be modified afterwards.
func (s *Sealer) Seal(prev *Block, proposer string, ts time.Time, txs []*Transaction) *Block {
	if prev == nil {
		return NewBlock(nil, proposer, ts, txs)
	}
	slot := &s.ring[(prev.Number+1)%sealerSlots]
	if b := *slot; b != nil && b.Number == prev.Number+1 && b.PrevHash == prev.Hash &&
		b.Proposer == proposer && b.Timestamp == ts && slices.Equal(b.Txs, txs) {
		return b
	}
	b := NewBlock(prev, proposer, ts, txs)
	// A replica replaying old heights must not evict what the others are
	// about to ask for.
	if *slot == nil || (*slot).Number <= b.Number {
		*slot = b
	}
	return b
}
