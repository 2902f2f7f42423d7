// Package chain defines the data structures shared by all seven simulated
// systems: transactions (including multi-operation transactions and atomic
// batches), hash-linked blocks, the append-only ledger, and UTXO primitives
// for the Corda-style systems.
package chain

import (
	"fmt"
	"strings"

	"github.com/coconut-bench/coconut/internal/crypto"
)

// Operation is a single state change. BitShares packs many operations into
// one transaction (paper §2, Table 2); the other systems carry exactly one.
type Operation struct {
	// IEL names the interface execution layer ("donothing", "keyvalue",
	// "bankingapp").
	IEL string
	// Function is the IEL function to invoke (e.g. "Set", "SendPayment").
	Function string
	// Args are the function arguments.
	Args []string
}

// String renders the operation for tracing.
func (o Operation) String() string {
	return fmt.Sprintf("%s.%s(%s)", o.IEL, o.Function, strings.Join(o.Args, ","))
}

// digestInto streams the operation content into an in-progress digest. The
// byte stream matches the historical Sum([]byte(IEL), []byte(Function),
// args...) concatenation, so derived IDs are stable across the refactor.
func (o Operation) digestInto(h *crypto.Hasher) {
	h.WriteString(o.IEL)
	h.WriteString(o.Function)
	for _, a := range o.Args {
		h.WriteString(a)
	}
}

// TxStatus is the lifecycle state of a transaction as seen by a node.
type TxStatus int

// Transaction lifecycle states.
const (
	TxPending TxStatus = iota + 1
	TxCommitted
	TxRejected
)

// String implements fmt.Stringer.
func (s TxStatus) String() string {
	switch s {
	case TxPending:
		return "pending"
	case TxCommitted:
		return "committed"
	case TxRejected:
		return "rejected"
	default:
		return fmt.Sprintf("TxStatus(%d)", int(s))
	}
}

// Transaction is the unit submitted by COCONUT clients. Depending on the
// system it carries one operation (Fabric, Quorum, Diem, Corda), several
// operations (BitShares), or is grouped into a Batch (Sawtooth).
type Transaction struct {
	// ID uniquely identifies the transaction.
	ID crypto.Hash
	// Client is the submitting COCONUT client endpoint name.
	Client string
	// Seq is the client-local sequence number.
	Seq uint64
	// Num is the transaction's dense number within its repetition, given by
	// the client before it submits: drivers copy it into their commit events
	// so the hub and the client index by it. It is not hashed, so ID does not
	// depend on it; 0 means unnumbered.
	Num uint64
	// Ops are the operations; len(Ops) >= 1.
	Ops []Operation
	// Stages carries the per-stage pipeline completion timestamps stamped by
	// the driver as the transaction travels submit → queue → consensus →
	// execute → validate. Embedded by value so marking allocates nothing.
	Stages StageTrace
}

// NewTransaction builds a transaction with a derived ID.
func NewTransaction(client string, seq uint64, ops ...Operation) *Transaction {
	tx := &Transaction{Client: client, Seq: seq, Ops: ops}
	tx.ID = tx.computeID()
	return tx
}

// NewSingleOp is shorthand for the common one-operation transaction.
func NewSingleOp(client string, seq uint64, iel, fn string, args ...string) *Transaction {
	return NewSingleOpTx(client, seq, Operation{IEL: iel, Function: fn, Args: args})
}

// NewSingleOpTx builds the one-operation transaction around op, keeping the
// transaction and its operation in one allocation. The ID is NewTransaction's.
func NewSingleOpTx(client string, seq uint64, op Operation) *Transaction {
	one := &struct {
		tx Transaction
		op [1]Operation
	}{op: [1]Operation{op}}
	tx := &one.tx
	tx.Client, tx.Seq, tx.Ops = client, seq, one.op[:]
	tx.ID = tx.computeID()
	return tx
}

func (tx *Transaction) computeID() crypto.Hash {
	h := crypto.AcquireHasher()
	for _, op := range tx.Ops {
		h.Reset()
		op.digestInto(h)
		h.AppendLeaf(h.Sum())
	}
	root := h.MerkleRoot()
	h.Reset()
	h.WriteString(tx.Client)
	h.WriteUint64(tx.Seq)
	h.WriteHash(root)
	id := h.Sum()
	h.Release()
	return id
}

// OpCount returns the number of operations the transaction carries. The
// paper counts each BitShares operation as one transaction for MTPS
// purposes (§4.5), so throughput accounting uses this value.
func (tx *Transaction) OpCount() int { return len(tx.Ops) }

// Verify checks structural validity: a non-zero ID matching the content and
// at least one operation.
func (tx *Transaction) Verify() error {
	if len(tx.Ops) == 0 {
		return fmt.Errorf("tx %s: no operations", tx.ID.Short())
	}
	if tx.ID != tx.computeID() {
		return fmt.Errorf("tx %s: id does not match content", tx.ID.Short())
	}
	return nil
}

// Batch is Sawtooth's atomic submission unit: several transactions that
// commit or fail together (paper §2). A failure of any member discards the
// whole batch.
type Batch struct {
	ID  crypto.Hash
	Txs []*Transaction
}

// NewBatch groups transactions into an atomic batch.
func NewBatch(txs ...*Transaction) *Batch {
	h := crypto.AcquireHasher()
	for _, tx := range txs {
		h.AppendLeaf(tx.ID)
	}
	id := h.MerkleRoot()
	h.Release()
	return &Batch{ID: id, Txs: txs}
}

// Size returns the number of member transactions.
func (b *Batch) Size() int { return len(b.Txs) }
