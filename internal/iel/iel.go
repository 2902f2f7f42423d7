// Package iel implements the three interface execution layers (the paper's
// standardized term for smart-contract constructs, Table 3) that every
// benchmark invokes:
//
//   - DoNothing     — an empty function, isolating consensus cost.
//   - KeyValue      — Set/Get of a key-value pair, targeting storage.
//   - BankingApp    — CreateAccount / SendPayment / Balance, provoking
//     overwriting (serialisability-conflicting) transactions.
//
// The layers execute against a StateOps abstraction so the same contract
// code runs inside every system: Fabric routes it through an MVCC read-write
// set recorder, the account-model systems through their world state, and
// Sawtooth through its transaction processor state.
package iel

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"

	"github.com/coconut-bench/coconut/internal/chain"
)

// IEL names as used in transactions.
const (
	DoNothingName  = "donothing"
	KeyValueName   = "keyvalue"
	BankingAppName = "bankingapp"
)

// Function names per IEL. The SmallBank family (TransactSavings through
// Amalgamate) extends the BankingApp layer beyond the paper's three
// functions with the classic contention-provoking transaction profiles of
// the SmallBank OLTP benchmark; the contention workload plane
// (internal/workload) uses them to stress cross-account conflicts.
const (
	FnDoNothing       = "DoNothing"
	FnSet             = "Set"
	FnGet             = "Get"
	FnCreateAccount   = "CreateAccount"
	FnSendPayment     = "SendPayment"
	FnBalance         = "Balance"
	FnTransactSavings = "TransactSavings"
	FnDepositChecking = "DepositChecking"
	FnWriteCheck      = "WriteCheck"
	FnAmalgamate      = "Amalgamate"
)

// StateOps is the world-state interface the execution layers run against.
type StateOps interface {
	// Get returns the value stored at key.
	Get(key string) (string, bool)
	// Put stores value at key.
	Put(key, value string)
}

// Execution errors, matchable with errors.Is.
var (
	ErrUnknownIEL        = errors.New("iel: unknown interface execution layer")
	ErrUnknownFunction   = errors.New("iel: unknown function")
	ErrBadArgs           = errors.New("iel: bad arguments")
	ErrKeyNotFound       = errors.New("iel: key not found")
	ErrAccountExists     = errors.New("iel: account already exists")
	ErrAccountNotFound   = errors.New("iel: account not found")
	ErrInsufficientFunds = errors.New("iel: insufficient funds")
)

// Account keys in the underlying store.
func checkingKey(id string) string { return "acct/" + id + "/checking" }
func savingsKey(id string) string  { return "acct/" + id + "/savings" }

// keysOf is the one table of the state keys each function touches, written
// keys first. Every BankingApp function draws its keys, in this order, from
// the first account's checking and savings balances and the second account's
// checking balance. DoNothing, unknown shapes and an operation too short to
// name its accounts touch nothing. A bound operation's keys are returned as
// they are, not built again.
func keysOf(op chain.Operation) (keys []string, written int) {
	const checking0, savings0, checking1 = 1, 2, 4
	a, touched := op.Args, 0
	switch {
	case len(a) == 0:
	case op.IEL == KeyValueName:
		if op.Function == FnSet {
			written = 1
		}
		return a[:1:1], written
	case op.IEL == BankingAppName:
		switch op.Function {
		case FnCreateAccount:
			touched, written = checking0|savings0, 2
		case FnSendPayment:
			touched, written = checking0|checking1, 2
		case FnBalance:
			touched, written = checking0, 0
		case FnTransactSavings:
			touched, written = savings0, 1
		case FnDepositChecking:
			touched, written = checking0, 1
		case FnWriteCheck: // reads savings, writes only checking
			touched, written = checking0|savings0, 1
		case FnAmalgamate:
			touched, written = checking0|savings0|checking1, 3
		}
	}
	if touched == 0 || touched&checking1 != 0 && len(a) < 2 {
		return nil, 0
	}
	if op.Keys != nil {
		return op.Keys, written
	}
	keys = make([]string, 0, bits.OnesCount(uint(touched)))
	if touched&checking0 != 0 {
		keys = append(keys, checkingKey(a[0]))
	}
	if touched&savings0 != 0 {
		keys = append(keys, savingsKey(a[0]))
	}
	if touched&checking1 != 0 {
		keys = append(keys, checkingKey(a[1]))
	}
	return keys, written
}

// Bind returns op with its state keys resolved, so that every replica,
// dry-run and conflict filter it later reaches reads them instead of
// building them again. Bind where the operation is created and leave Args
// alone afterwards; an unbound operation executes the same, resolving its
// keys on each call.
func Bind(op chain.Operation) chain.Operation {
	op.Keys, _ = keysOf(op)
	return op
}

// Execute runs one operation against the state. A non-nil error marks the
// operation (and, per each system's atomicity rules, its enclosing
// transaction or batch) as failed.
func Execute(op chain.Operation, st StateOps) error {
	switch op.IEL {
	case DoNothingName:
		return executeDoNothing(op)
	case KeyValueName:
		return executeKeyValue(op, st)
	case BankingAppName:
		return executeBankingApp(op, st)
	default:
		return fmt.Errorf("%w: %q", ErrUnknownIEL, op.IEL)
	}
}

func executeDoNothing(op chain.Operation) error {
	if op.Function != FnDoNothing {
		return fmt.Errorf("%w: %s.%s", ErrUnknownFunction, op.IEL, op.Function)
	}
	return nil
}

func executeKeyValue(op chain.Operation, st StateOps) error {
	switch op.Function {
	case FnSet:
		if len(op.Args) != 2 {
			return fmt.Errorf("%w: Set wants (key, value), got %d args", ErrBadArgs, len(op.Args))
		}
		st.Put(op.Args[0], op.Args[1])
		return nil
	case FnGet:
		if len(op.Args) != 1 {
			return fmt.Errorf("%w: Get wants (key), got %d args", ErrBadArgs, len(op.Args))
		}
		if _, ok := st.Get(op.Args[0]); !ok {
			return fmt.Errorf("%w: %q", ErrKeyNotFound, op.Args[0])
		}
		return nil
	default:
		return fmt.Errorf("%w: %s.%s", ErrUnknownFunction, op.IEL, op.Function)
	}
}

func executeBankingApp(op chain.Operation, st StateOps) error {
	// Each function checks its argument count before it indexes keys: with
	// the right count, every key keysOf lists for it is there.
	keys, _ := keysOf(op) // op.Keys when bound
	switch op.Function {
	case FnCreateAccount:
		// CreateAccount(id, checking, savings) creates checking and saving
		// accounts with defined money (paper Table 3).
		if len(op.Args) != 3 {
			return fmt.Errorf("%w: CreateAccount wants (id, checking, savings)", ErrBadArgs)
		}
		id := op.Args[0]
		if _, ok := st.Get(keys[0]); ok {
			return fmt.Errorf("%w: %q", ErrAccountExists, id)
		}
		if _, err := strconv.ParseInt(op.Args[1], 10, 64); err != nil {
			return fmt.Errorf("%w: checking amount %q", ErrBadArgs, op.Args[1])
		}
		if _, err := strconv.ParseInt(op.Args[2], 10, 64); err != nil {
			return fmt.Errorf("%w: savings amount %q", ErrBadArgs, op.Args[2])
		}
		st.Put(keys[0], op.Args[1])
		st.Put(keys[1], op.Args[2])
		return nil

	case FnSendPayment:
		// SendPayment(from, to, amount) moves checking funds from account n
		// to account n+1, deliberately creating overwriting transactions.
		if len(op.Args) != 3 {
			return fmt.Errorf("%w: SendPayment wants (from, to, amount)", ErrBadArgs)
		}
		from, to := op.Args[0], op.Args[1]
		amount, err := strconv.ParseInt(op.Args[2], 10, 64)
		if err != nil || amount < 0 {
			return fmt.Errorf("%w: amount %q", ErrBadArgs, op.Args[2])
		}
		fromBal, ok := st.Get(keys[0])
		if !ok {
			return fmt.Errorf("%w: %q", ErrAccountNotFound, from)
		}
		toBal, ok := st.Get(keys[1])
		if !ok {
			return fmt.Errorf("%w: %q", ErrAccountNotFound, to)
		}
		fromAmt, err := strconv.ParseInt(fromBal, 10, 64)
		if err != nil {
			return fmt.Errorf("iel: corrupt balance for %q: %v", from, err)
		}
		toAmt, err := strconv.ParseInt(toBal, 10, 64)
		if err != nil {
			return fmt.Errorf("iel: corrupt balance for %q: %v", to, err)
		}
		if fromAmt < amount {
			return fmt.Errorf("%w: %q has %d, needs %d", ErrInsufficientFunds, from, fromAmt, amount)
		}
		if from == to {
			// Self-payment: funds checked, balance unchanged. Writing the
			// debit then the credit from stale reads would mint money.
			return nil
		}
		st.Put(keys[0], strconv.FormatInt(fromAmt-amount, 10))
		st.Put(keys[1], strconv.FormatInt(toAmt+amount, 10))
		return nil

	case FnBalance:
		// Balance(id) checks an account balance.
		if len(op.Args) != 1 {
			return fmt.Errorf("%w: Balance wants (id)", ErrBadArgs)
		}
		if _, ok := st.Get(keys[0]); !ok {
			return fmt.Errorf("%w: %q", ErrAccountNotFound, op.Args[0])
		}
		return nil

	case FnTransactSavings:
		// TransactSavings(id, amount) adjusts the savings balance; a
		// withdrawal past zero fails (SmallBank semantics).
		if len(op.Args) != 2 {
			return fmt.Errorf("%w: TransactSavings wants (id, amount)", ErrBadArgs)
		}
		id := op.Args[0]
		amount, err := strconv.ParseInt(op.Args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("%w: amount %q", ErrBadArgs, op.Args[1])
		}
		bal, err := readBalance(st, keys[0], id)
		if err != nil {
			return err
		}
		if bal+amount < 0 {
			return fmt.Errorf("%w: %q savings %d, delta %d", ErrInsufficientFunds, id, bal, amount)
		}
		st.Put(keys[0], strconv.FormatInt(bal+amount, 10))
		return nil

	case FnDepositChecking:
		// DepositChecking(id, amount) credits the checking balance; negative
		// deposits are rejected.
		if len(op.Args) != 2 {
			return fmt.Errorf("%w: DepositChecking wants (id, amount)", ErrBadArgs)
		}
		id := op.Args[0]
		amount, err := strconv.ParseInt(op.Args[1], 10, 64)
		if err != nil || amount < 0 {
			return fmt.Errorf("%w: amount %q", ErrBadArgs, op.Args[1])
		}
		bal, err := readBalance(st, keys[0], id)
		if err != nil {
			return err
		}
		st.Put(keys[0], strconv.FormatInt(bal+amount, 10))
		return nil

	case FnWriteCheck:
		// WriteCheck(id, amount) cashes a check against the combined balance
		// and debits checking; a check larger than the combined funds fails.
		if len(op.Args) != 2 {
			return fmt.Errorf("%w: WriteCheck wants (id, amount)", ErrBadArgs)
		}
		id := op.Args[0]
		amount, err := strconv.ParseInt(op.Args[1], 10, 64)
		if err != nil || amount < 0 {
			return fmt.Errorf("%w: amount %q", ErrBadArgs, op.Args[1])
		}
		checking, err := readBalance(st, keys[0], id)
		if err != nil {
			return err
		}
		savings, err := readBalance(st, keys[1], id)
		if err != nil {
			return err
		}
		if checking+savings < amount {
			return fmt.Errorf("%w: %q has %d, check for %d", ErrInsufficientFunds, id, checking+savings, amount)
		}
		st.Put(keys[0], strconv.FormatInt(checking-amount, 10))
		return nil

	case FnAmalgamate:
		// Amalgamate(src, dst) zeroes src's balances and credits the sum to
		// dst's checking — the SmallBank transaction touching four keys
		// across two accounts, the family's widest conflict footprint.
		if len(op.Args) != 2 {
			return fmt.Errorf("%w: Amalgamate wants (src, dst)", ErrBadArgs)
		}
		src, dst := op.Args[0], op.Args[1]
		srcChecking, err := readBalance(st, keys[0], src)
		if err != nil {
			return err
		}
		srcSavings, err := readBalance(st, keys[1], src)
		if err != nil {
			return err
		}
		if src == dst {
			// Self-amalgamation folds savings into checking; crediting the
			// pre-zeroing checking read would mint money.
			st.Put(keys[0], strconv.FormatInt(srcChecking+srcSavings, 10))
			st.Put(keys[1], "0")
			return nil
		}
		dstChecking, err := readBalance(st, keys[2], dst)
		if err != nil {
			return err
		}
		st.Put(keys[0], "0")
		st.Put(keys[1], "0")
		st.Put(keys[2], strconv.FormatInt(dstChecking+srcChecking+srcSavings, 10))
		return nil

	default:
		return fmt.Errorf("%w: %s.%s", ErrUnknownFunction, op.IEL, op.Function)
	}
}

// readBalance fetches and parses one balance key, mapping a missing key to
// ErrAccountNotFound.
func readBalance(st StateOps, key, id string) (int64, error) {
	raw, ok := st.Get(key)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrAccountNotFound, id)
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("iel: corrupt balance for %q: %v", id, err)
	}
	return v, nil
}

// TouchedKeys returns the state keys an operation reads or writes, written
// keys first, used by BitShares-style conflict exclusion and by ablation
// benches. DoNothing touches nothing; unknown shapes return nil.
func TouchedKeys(op chain.Operation) []string {
	keys, _ := keysOf(op)
	return keys
}

// WrittenKeys returns only the state keys an operation writes. BitShares'
// interacting-operation exclusion uses write sets: two reads never
// interact, a read never invalidates a block member.
func WrittenKeys(op chain.Operation) []string {
	keys, written := keysOf(op)
	if written == 0 {
		return nil
	}
	return keys[:written]
}

// KVState adapts a plain map to StateOps for tests and simple systems.
type KVState map[string]string

var _ StateOps = KVState{}

// Get implements StateOps.
func (m KVState) Get(key string) (string, bool) {
	v, ok := m[key]
	return v, ok
}

// Put implements StateOps.
func (m KVState) Put(key, value string) { m[key] = value }
