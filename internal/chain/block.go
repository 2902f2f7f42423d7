package chain

import (
	"fmt"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/crypto"
)

// Block is the replicated unit of the block-structured systems (all but
// Corda). Blocks are hash-linked through PrevHash.
type Block struct {
	// Number is the height, starting at 0 for genesis.
	Number uint64
	// PrevHash links to the predecessor block.
	PrevHash crypto.Hash
	// Timestamp is the proposer's block-formation time.
	Timestamp time.Time
	// Proposer names the node (orderer, witness, validator) that formed it.
	Proposer string
	// Txs are the member transactions in commit order.
	Txs []*Transaction
	// TxRoot is the Merkle root over transaction IDs.
	TxRoot crypto.Hash
	// Hash is the block's own digest.
	Hash crypto.Hash
}

// NewBlock assembles and seals a block on top of prev (nil for genesis).
func NewBlock(prev *Block, proposer string, ts time.Time, txs []*Transaction) *Block {
	b := &Block{
		Timestamp: ts,
		Proposer:  proposer,
		Txs:       txs,
	}
	if prev != nil {
		b.Number = prev.Number + 1
		b.PrevHash = prev.Hash
	}
	b.Seal()
	return b
}

// Genesis creates the height-0 block for a chain.
func Genesis(networkID string) *Block {
	b := &Block{
		Proposer:  "genesis",
		Timestamp: time.Unix(0, 0).UTC(),
	}
	b.PrevHash = crypto.SumString("genesis:" + networkID)
	b.Seal()
	return b
}

// Seal recomputes TxRoot and Hash from the current content. The whole seal
// runs on one pooled hasher: the Merkle fold reuses a single level buffer
// and the header digest streams field by field, so sealing allocates
// nothing regardless of block size.
func (b *Block) Seal() {
	h := crypto.AcquireHasher()
	for _, tx := range b.Txs {
		h.AppendLeaf(tx.ID)
	}
	b.TxRoot = h.MerkleRoot()
	h.Reset()
	h.WriteUint64(b.Number)
	h.WriteHash(b.PrevHash)
	h.WriteHash(b.TxRoot)
	h.WriteString(b.Proposer)
	h.WriteUint64(uint64(b.Timestamp.UnixNano()))
	b.Hash = h.Sum()
	h.Release()
}

// TxCount returns the number of transactions in the block.
func (b *Block) TxCount() int { return len(b.Txs) }

// OpCount returns the total operations across all member transactions,
// which is the MTPS-relevant count for BitShares-style blocks.
func (b *Block) OpCount() int {
	n := 0
	for _, tx := range b.Txs {
		n += tx.OpCount()
	}
	return n
}

// VerifyLink checks that b correctly extends prev.
func (b *Block) VerifyLink(prev *Block) error {
	if prev == nil {
		if b.Number != 0 {
			return fmt.Errorf("block %d: missing predecessor", b.Number)
		}
		return nil
	}
	if b.Number != prev.Number+1 {
		return fmt.Errorf("block %d: does not follow height %d", b.Number, prev.Number)
	}
	if b.PrevHash != prev.Hash {
		return fmt.Errorf("block %d: prev hash mismatch", b.Number)
	}
	return nil
}

// Ledger is a node's append-only, hash-linked block store. It enforces
// integrity on every append and supports lookup by height.
type Ledger struct {
	mu     sync.RWMutex
	blocks []*Block
}

// NewLedger creates a ledger seeded with the genesis block for networkID.
func NewLedger(networkID string) *Ledger {
	return &Ledger{blocks: []*Block{Genesis(networkID)}}
}

// Append validates and appends a block.
func (l *Ledger) Append(b *Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.blocks[len(l.blocks)-1]
	if err := b.VerifyLink(head); err != nil {
		return err
	}
	l.blocks = append(l.blocks, b)
	return nil
}

// Head returns the latest block.
func (l *Ledger) Head() *Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.blocks[len(l.blocks)-1]
}

// Height returns the head block number.
func (l *Ledger) Height() uint64 { return l.Head().Number }

// BlockAt returns the block at the given height.
func (l *Ledger) BlockAt(n uint64) (*Block, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n >= uint64(len(l.blocks)) {
		return nil, false
	}
	return l.blocks[n], true
}

// TxCount returns the total committed transactions (excluding genesis).
func (l *Ledger) TxCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, b := range l.blocks {
		n += len(b.Txs)
	}
	return n
}

// Verify walks the whole chain and validates every link.
func (l *Ledger) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := 1; i < len(l.blocks); i++ {
		if err := l.blocks[i].VerifyLink(l.blocks[i-1]); err != nil {
			return err
		}
	}
	return nil
}

// Blocks returns a snapshot copy of the chain.
func (l *Ledger) Blocks() []*Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]*Block, len(l.blocks))
	copy(out, l.blocks)
	return out
}
