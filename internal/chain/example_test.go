package chain_test

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
)

// ExampleLedger builds a small hash-linked chain and verifies it.
func ExampleLedger() {
	ledger := chain.NewLedger("example-network")

	tx := chain.NewSingleOp("client-1", 1, "keyvalue", "Set", "greeting", "hello")
	block := chain.NewBlock(ledger.Head(), "orderer-0", time.Unix(0, 0), []*chain.Transaction{tx})
	if err := ledger.Append(block); err != nil {
		fmt.Println("append:", err)
		return
	}

	fmt.Println("height:", ledger.Height())
	fmt.Println("verified:", ledger.Verify() == nil)
	fmt.Println("transactions:", ledger.TxCount())
	// Output:
	// height: 1
	// verified: true
	// transactions: 1
}

// ExampleVault walks the Corda-style UTXO lifecycle: issue a state, spend
// it, and observe the double-spend rejection.
func ExampleVault() {
	vault := chain.NewVault()

	issue := chain.NewUTXOTransaction("client-1", 1,
		chain.Operation{IEL: "bankingapp", Function: "CreateAccount", Args: []string{"alice"}},
		nil,
		[]chain.ContractState{{Kind: "account", Key: "alice", Value: "100"}},
	)
	if err := vault.Apply(issue); err != nil {
		fmt.Println("issue:", err)
		return
	}

	spend := chain.NewUTXOTransaction("client-1", 2,
		chain.Operation{IEL: "bankingapp", Function: "SendPayment", Args: []string{"alice", "bob", "100"}},
		[]chain.StateRef{issue.Ref(0)},
		[]chain.ContractState{{Kind: "account", Key: "bob", Value: "100"}},
	)
	fmt.Println("spend ok:", vault.Apply(spend) == nil)

	double := chain.NewUTXOTransaction("client-1", 3,
		chain.Operation{IEL: "bankingapp", Function: "SendPayment", Args: []string{"alice", "carol", "100"}},
		[]chain.StateRef{issue.Ref(0)},
		nil,
	)
	fmt.Println("double spend rejected:", vault.Apply(double) != nil)
	// Output:
	// spend ok: true
	// double spend rejected: true
}
