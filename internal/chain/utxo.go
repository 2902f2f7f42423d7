package chain

import (
	"fmt"

	"github.com/coconut-bench/coconut/internal/crypto"
)

// StateRef identifies one output state of a Corda-style transaction: the
// producing transaction plus the output index.
type StateRef struct {
	TxID  crypto.Hash
	Index int
}

// String renders the reference for tracing and error messages.
func (r StateRef) String() string {
	return fmt.Sprintf("%s[%d]", r.TxID.Short(), r.Index)
}

// ContractState is the content of a UTXO state in the Corda model. Key/Value
// carry IEL data (a stored key-value pair, an account row); Kind names the
// contract.
type ContractState struct {
	Kind  string
	Key   string
	Value string
	Owner string
}

// UTXOTransaction is a Corda-style transaction: it consumes input state
// references and produces output states. Corda has no blocks (paper §2);
// these transactions finalize individually once notarised and signed by all
// required parties.
type UTXOTransaction struct {
	ID      crypto.Hash
	Inputs  []StateRef
	Outputs []ContractState
}

// NewUTXOTransaction derives the transaction ID from the submitting
// client, its sequence number, the operation and the states. The
// derivation streams through one pooled hasher (operation digest, then the
// content digest, then the client/seq ID) and allocates nothing.
func NewUTXOTransaction(client string, seq uint64, op Operation, inputs []StateRef, outputs []ContractState) *UTXOTransaction {
	h := crypto.AcquireHasher()
	op.digestInto(h)
	opDigest := h.Sum()
	h.Reset()
	h.WriteHash(opDigest)
	for _, in := range inputs {
		h.WriteHash(in.TxID)
		h.WriteUint64(uint64(in.Index))
	}
	for _, out := range outputs {
		h.WriteString(out.Kind)
		h.WriteString(out.Key)
		h.WriteString(out.Value)
		h.WriteString(out.Owner)
	}
	content := h.Sum()
	h.Reset()
	h.WriteString(client)
	h.WriteUint64(seq)
	h.WriteHash(content)
	id := h.Sum()
	h.Release()
	return &UTXOTransaction{ID: id, Inputs: inputs, Outputs: outputs}
}

// Ref returns the StateRef for output i of this transaction.
func (tx *UTXOTransaction) Ref(i int) StateRef { return StateRef{TxID: tx.ID, Index: i} }

// DoubleSpendError reports an attempt to consume an already-spent state; the
// Corda notary returns it when SendPayment races on the same input (paper
// §4.1: "a notary might reject already spent transaction output").
type DoubleSpendError struct {
	Ref        StateRef
	ConsumedBy crypto.Hash
}

// Error implements error.
func (e *DoubleSpendError) Error() string {
	return fmt.Sprintf("state %s already consumed by tx %s", e.Ref, e.ConsumedBy.Short())
}

// UnknownStateError reports consumption of a state that was never produced.
type UnknownStateError struct{ Ref StateRef }

// Error implements error.
func (e *UnknownStateError) Error() string {
	return fmt.Sprintf("state %s does not exist", e.Ref)
}

// Vault is a node's UTXO store: the set of unspent states plus the history
// of consumed ones. It is the storage component the paper's Corda
// KeyValue-Get benchmark stresses by forcing linear scans.
type Vault struct {
	unspent  map[StateRef]ContractState
	consumed map[StateRef]crypto.Hash // ref -> consuming tx
	order    []StateRef               // insertion order, for linear scans
}

// NewVault creates an empty vault.
func NewVault() *Vault {
	return &Vault{
		unspent:  make(map[StateRef]ContractState),
		consumed: make(map[StateRef]crypto.Hash),
	}
}

// Apply atomically consumes the transaction's inputs and records its
// outputs. It fails without side effects on double spends or unknown
// inputs.
func (v *Vault) Apply(tx *UTXOTransaction) error {
	for _, in := range tx.Inputs {
		if by, ok := v.consumed[in]; ok {
			return &DoubleSpendError{Ref: in, ConsumedBy: by}
		}
		if _, ok := v.unspent[in]; !ok {
			return &UnknownStateError{Ref: in}
		}
	}
	for _, in := range tx.Inputs {
		delete(v.unspent, in)
		v.consumed[in] = tx.ID
	}
	for i, out := range tx.Outputs {
		ref := tx.Ref(i)
		v.unspent[ref] = out
		v.order = append(v.order, ref)
	}
	return nil
}

// Get returns the unspent state at ref.
func (v *Vault) Get(ref StateRef) (ContractState, bool) {
	st, ok := v.unspent[ref]
	return st, ok
}

// LinearScan walks every state ever produced, in insertion order, invoking
// fn on the unspent ones until fn returns true (found) or the scan ends.
// It returns the number of states visited. This deliberately models Corda
// OS's query functions, which "require iterating over each KeyValue pair to
// find a specific one" (paper §5.1) — the root cause of its read
// performance collapse.
func (v *Vault) LinearScan(fn func(ref StateRef, st ContractState) bool) int {
	visited := 0
	for _, ref := range v.order {
		st, ok := v.unspent[ref]
		if !ok {
			continue
		}
		visited++
		if fn(ref, st) {
			return visited
		}
	}
	return visited
}

// UnspentCount returns the number of live states.
func (v *Vault) UnspentCount() int {
	return len(v.unspent)
}

// ConsumedCount returns the number of spent states.
func (v *Vault) ConsumedCount() int {
	return len(v.consumed)
}
