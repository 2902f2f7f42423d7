package iel

import (
	"errors"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/statestore"
)

func op(ielName, fn string, args ...string) chain.Operation {
	return chain.Operation{IEL: ielName, Function: fn, Args: args}
}

func TestDoNothing(t *testing.T) {
	st := KVState{}
	if err := Execute(op(DoNothingName, FnDoNothing), st); err != nil {
		t.Fatal(err)
	}
	if len(st) != 0 {
		t.Fatal("DoNothing wrote state")
	}
	if err := Execute(op(DoNothingName, "Bogus"), st); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v, want ErrUnknownFunction", err)
	}
}

func TestUnknownIEL(t *testing.T) {
	if err := Execute(op("mystery", "Fn"), KVState{}); !errors.Is(err, ErrUnknownIEL) {
		t.Fatalf("err = %v, want ErrUnknownIEL", err)
	}
}

func TestKeyValueSetGet(t *testing.T) {
	st := KVState{}
	if err := Execute(op(KeyValueName, FnSet, "k1", "v1"), st); err != nil {
		t.Fatal(err)
	}
	if st[statestore.Key{Name: "k1"}] != "v1" {
		t.Fatalf("state = %v", st)
	}
	if err := Execute(op(KeyValueName, FnGet, "k1"), st); err != nil {
		t.Fatal(err)
	}
	if err := Execute(op(KeyValueName, FnGet, "missing"), st); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("err = %v, want ErrKeyNotFound", err)
	}
}

func TestKeyValueBadArgs(t *testing.T) {
	st := KVState{}
	if err := Execute(op(KeyValueName, FnSet, "only-key"), st); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v, want ErrBadArgs", err)
	}
	if err := Execute(op(KeyValueName, FnGet), st); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v, want ErrBadArgs", err)
	}
	if err := Execute(op(KeyValueName, "Delete", "k"), st); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v, want ErrUnknownFunction", err)
	}
}

func TestCreateAccount(t *testing.T) {
	st := KVState{}
	if err := Execute(op(BankingAppName, FnCreateAccount, "acc-0", "100", "50"), st); err != nil {
		t.Fatal(err)
	}
	if st[checkingKey("acc-0")] != "100" || st[savingsKey("acc-0")] != "50" {
		t.Fatalf("state = %v", st)
	}
	err := Execute(op(BankingAppName, FnCreateAccount, "acc-0", "1", "1"), st)
	if !errors.Is(err, ErrAccountExists) {
		t.Fatalf("err = %v, want ErrAccountExists", err)
	}
	err = Execute(op(BankingAppName, FnCreateAccount, "acc-1", "NaN", "0"), st)
	if !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v, want ErrBadArgs", err)
	}
}

func TestSendPayment(t *testing.T) {
	st := KVState{}
	mustExec(t, st, op(BankingAppName, FnCreateAccount, "a", "100", "0"))
	mustExec(t, st, op(BankingAppName, FnCreateAccount, "b", "10", "0"))

	mustExec(t, st, op(BankingAppName, FnSendPayment, "a", "b", "30"))
	if st[checkingKey("a")] != "70" || st[checkingKey("b")] != "40" {
		t.Fatalf("balances = %v", st)
	}

	err := Execute(op(BankingAppName, FnSendPayment, "a", "b", "9999"), st)
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
	err = Execute(op(BankingAppName, FnSendPayment, "ghost", "b", "1"), st)
	if !errors.Is(err, ErrAccountNotFound) {
		t.Fatalf("err = %v, want ErrAccountNotFound", err)
	}
	err = Execute(op(BankingAppName, FnSendPayment, "a", "ghost", "1"), st)
	if !errors.Is(err, ErrAccountNotFound) {
		t.Fatalf("err = %v, want ErrAccountNotFound", err)
	}
	err = Execute(op(BankingAppName, FnSendPayment, "a", "b", "-5"), st)
	if !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v, want ErrBadArgs (negative amount)", err)
	}
}

func TestBalance(t *testing.T) {
	st := KVState{}
	mustExec(t, st, op(BankingAppName, FnCreateAccount, "a", "5", "5"))
	if err := Execute(op(BankingAppName, FnBalance, "a"), st); err != nil {
		t.Fatal(err)
	}
	err := Execute(op(BankingAppName, FnBalance, "nobody"), st)
	if !errors.Is(err, ErrAccountNotFound) {
		t.Fatalf("err = %v, want ErrAccountNotFound", err)
	}
}

// TestReadsWriteNothing: the paper's read benchmarks (KeyValue-Get and
// BankingApp-Balance) and DoNothing write no key; every write benchmark
// writes one.
func TestReadsWriteNothing(t *testing.T) {
	cases := []struct {
		op     chain.Operation
		writes bool
	}{
		{op(KeyValueName, FnGet, "k"), false},
		{op(KeyValueName, FnSet, "k", "v"), true},
		{op(BankingAppName, FnBalance, "a"), false},
		{op(BankingAppName, FnSendPayment, "a", "b", "1"), true},
		{op(BankingAppName, FnCreateAccount, "a", "1", "1"), true},
		{op(DoNothingName, FnDoNothing), false},
	}
	for _, c := range cases {
		if got := written(c.op); (len(got) > 0) != c.writes {
			t.Errorf("%v writes %v, want a write: %v", c.op, got, c.writes)
		}
	}
}

func TestTouchedKeys(t *testing.T) {
	if keys := touched(op(KeyValueName, FnSet, "k", "v")); len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("keys = %v", keys)
	}
	keys := touched(op(BankingAppName, FnSendPayment, "a", "b", "1"))
	if len(keys) != 2 || keys[0] != "acct/a/checking" || keys[1] != "acct/b/checking" {
		t.Fatalf("keys = %v", keys)
	}
	if keys := touched(op(DoNothingName, FnDoNothing)); keys != nil {
		t.Fatalf("DoNothing keys = %v, want nil", keys)
	}
	if keys := touched(op(BankingAppName, FnCreateAccount, "a", "1", "1")); len(keys) != 2 {
		t.Fatalf("CreateAccount keys = %v", keys)
	}
	if keys := touched(op(BankingAppName, FnBalance, "a")); len(keys) != 1 {
		t.Fatalf("Balance keys = %v", keys)
	}
}

// Property: a payment chain account_n -> account_n+1 (the paper's
// SendPayment pattern) conserves total funds when executed serially.
func TestPropertyPaymentChainConservesFunds(t *testing.T) {
	f := func(nAccounts uint8, amounts []uint8) bool {
		n := int(nAccounts%8) + 2
		st := KVState{}
		for i := 0; i < n; i++ {
			id := "acc-" + strconv.Itoa(i)
			if err := Execute(op(BankingAppName, FnCreateAccount, id, "1000", "0"), st); err != nil {
				return false
			}
		}
		for i, amt := range amounts {
			from := "acc-" + strconv.Itoa(i%n)
			to := "acc-" + strconv.Itoa((i+1)%n)
			_ = Execute(op(BankingAppName, FnSendPayment, from, to, strconv.Itoa(int(amt))), st)
		}
		total := int64(0)
		for i := 0; i < n; i++ {
			c, _ := strconv.ParseInt(st[checkingKey("acc-"+strconv.Itoa(i))], 10, 64)
			s, _ := strconv.ParseInt(st[savingsKey("acc-"+strconv.Itoa(i))], 10, 64)
			total += c + s
		}
		return total == int64(n)*1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Set then Get never fails for any key/value.
func TestPropertySetThenGet(t *testing.T) {
	f := func(key, value string) bool {
		st := KVState{}
		if err := Execute(op(KeyValueName, FnSet, key, value), st); err != nil {
			return false
		}
		return Execute(op(KeyValueName, FnGet, key), st) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mustExec(t *testing.T, st StateOps, o chain.Operation) {
	t.Helper()
	if err := Execute(o, st); err != nil {
		t.Fatal(err)
	}
}

func TestWrittenKeys(t *testing.T) {
	if keys := written(op(KeyValueName, FnSet, "k", "v")); len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("Set keys = %v", keys)
	}
	if keys := written(op(KeyValueName, FnGet, "k")); keys != nil {
		t.Fatalf("Get must write nothing, got %v", keys)
	}
	if keys := written(op(BankingAppName, FnBalance, "a")); keys != nil {
		t.Fatalf("Balance must write nothing, got %v", keys)
	}
	if keys := written(op(BankingAppName, FnSendPayment, "a", "b", "1")); len(keys) != 2 {
		t.Fatalf("SendPayment keys = %v", keys)
	}
	if keys := written(op(BankingAppName, FnCreateAccount, "a", "1", "1")); len(keys) != 2 {
		t.Fatalf("CreateAccount keys = %v", keys)
	}
	if keys := written(op(DoNothingName, FnDoNothing)); keys != nil {
		t.Fatalf("DoNothing keys = %v", keys)
	}
}

// --- SmallBank family ---

func newAccount(t *testing.T, st StateOps, id string, checking, savings int) {
	t.Helper()
	mustExec(t, st, op(BankingAppName, FnCreateAccount, id, strconv.Itoa(checking), strconv.Itoa(savings)))
}

func balances(t *testing.T, st StateOps, id string) (checking, savings int64) {
	t.Helper()
	c, ok := st.Get(checkingKey(id))
	if !ok {
		t.Fatalf("account %q has no checking balance", id)
	}
	s, ok := st.Get(savingsKey(id))
	if !ok {
		t.Fatalf("account %q has no savings balance", id)
	}
	cv, _ := strconv.ParseInt(c, 10, 64)
	sv, _ := strconv.ParseInt(s, 10, 64)
	return cv, sv
}

func TestTransactSavings(t *testing.T) {
	st := KVState{}
	newAccount(t, st, "a", 100, 50)
	mustExec(t, st, op(BankingAppName, FnTransactSavings, "a", "25"))
	if _, s := balances(t, st, "a"); s != 75 {
		t.Fatalf("savings = %d, want 75", s)
	}
	mustExec(t, st, op(BankingAppName, FnTransactSavings, "a", "-75"))
	if _, s := balances(t, st, "a"); s != 0 {
		t.Fatalf("savings = %d, want 0", s)
	}
	if err := Execute(op(BankingAppName, FnTransactSavings, "a", "-1"), st); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("overdraw err = %v", err)
	}
	if err := Execute(op(BankingAppName, FnTransactSavings, "ghost", "1"), st); !errors.Is(err, ErrAccountNotFound) {
		t.Fatalf("missing account err = %v", err)
	}
}

func TestDepositChecking(t *testing.T) {
	st := KVState{}
	newAccount(t, st, "a", 10, 0)
	mustExec(t, st, op(BankingAppName, FnDepositChecking, "a", "5"))
	if c, _ := balances(t, st, "a"); c != 15 {
		t.Fatalf("checking = %d, want 15", c)
	}
	if err := Execute(op(BankingAppName, FnDepositChecking, "a", "-5"), st); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("negative deposit err = %v", err)
	}
}

func TestWriteCheck(t *testing.T) {
	st := KVState{}
	newAccount(t, st, "a", 10, 20)
	// The check clears against the combined balance but debits checking,
	// which may go negative (SmallBank semantics).
	mustExec(t, st, op(BankingAppName, FnWriteCheck, "a", "25"))
	if c, s := balances(t, st, "a"); c != -15 || s != 20 {
		t.Fatalf("balances = %d/%d, want -15/20", c, s)
	}
	if err := Execute(op(BankingAppName, FnWriteCheck, "a", "100"), st); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("oversized check err = %v", err)
	}
}

func TestAmalgamate(t *testing.T) {
	st := KVState{}
	newAccount(t, st, "a", 30, 40)
	newAccount(t, st, "b", 5, 6)
	mustExec(t, st, op(BankingAppName, FnAmalgamate, "a", "b"))
	if c, s := balances(t, st, "a"); c != 0 || s != 0 {
		t.Fatalf("src balances = %d/%d, want 0/0", c, s)
	}
	if c, s := balances(t, st, "b"); c != 75 || s != 6 {
		t.Fatalf("dst balances = %d/%d, want 75/6", c, s)
	}
	if err := Execute(op(BankingAppName, FnAmalgamate, "a", "ghost"), st); !errors.Is(err, ErrAccountNotFound) {
		t.Fatalf("missing dst err = %v", err)
	}
}

func TestSmallBankKeySets(t *testing.T) {
	if keys := written(op(BankingAppName, FnTransactSavings, "a", "1")); len(keys) != 1 || keys[0] != "acct/a/savings" {
		t.Fatalf("TransactSavings written keys = %v", keys)
	}
	if keys := written(op(BankingAppName, FnWriteCheck, "a", "1")); len(keys) != 1 || keys[0] != "acct/a/checking" {
		t.Fatalf("WriteCheck written keys = %v", keys)
	}
	if keys := touched(op(BankingAppName, FnWriteCheck, "a", "1")); len(keys) != 2 {
		t.Fatalf("WriteCheck touched keys = %v", keys)
	}
	if keys := written(op(BankingAppName, FnAmalgamate, "a", "b")); len(keys) != 3 {
		t.Fatalf("Amalgamate written keys = %v", keys)
	}
	for _, fn := range []string{FnTransactSavings, FnDepositChecking, FnWriteCheck, FnAmalgamate} {
		if len(written(op(BankingAppName, fn, "a", "1"))) == 0 {
			t.Errorf("%s must write a key", fn)
		}
	}
}

func TestSelfTransfersConserveFunds(t *testing.T) {
	st := KVState{}
	newAccount(t, st, "a", 30, 40)
	// Self-payment and self-amalgamation must not mint money from stale
	// reads.
	mustExec(t, st, op(BankingAppName, FnSendPayment, "a", "a", "10"))
	if c, s := balances(t, st, "a"); c != 30 || s != 40 {
		t.Fatalf("self-payment balances = %d/%d, want 30/40", c, s)
	}
	mustExec(t, st, op(BankingAppName, FnAmalgamate, "a", "a"))
	if c, s := balances(t, st, "a"); c != 70 || s != 0 {
		t.Fatalf("self-amalgamate balances = %d/%d, want 70/0", c, s)
	}
	if err := Execute(op(BankingAppName, FnSendPayment, "a", "a", "100"), st); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("overdrawn self-payment err = %v", err)
	}
}
