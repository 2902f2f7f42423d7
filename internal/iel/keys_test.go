package iel

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/statestore"
)

// functions lists every function of every layer.
var functions = []struct{ iel, fn string }{
	{DoNothingName, FnDoNothing},
	{KeyValueName, FnSet},
	{KeyValueName, FnGet},
	{BankingAppName, FnCreateAccount},
	{BankingAppName, FnSendPayment},
	{BankingAppName, FnBalance},
	{BankingAppName, FnTransactSavings},
	{BankingAppName, FnDepositChecking},
	{BankingAppName, FnWriteCheck},
	{BankingAppName, FnAmalgamate},
}

var sentinels = []error{ErrUnknownIEL, ErrUnknownFunction, ErrBadArgs, ErrKeyNotFound,
	ErrAccountExists, ErrAccountNotFound, ErrInsufficientFunds}

// eachArgs calls f with every argument list of zero to four words over two
// existing accounts (also KeyValue keys), a missing one, and a small, a
// negative, a non-numeric and an unaffordable amount. Well-formed calls,
// every wrong argument count, self-payment and self-amalgamation are all
// among them.
func eachArgs(f func(args []string)) {
	words := []string{"a", "b", "nobody", "5", "-3", "x", "100000"}
	var rec func(args []string)
	rec = func(args []string) {
		f(args)
		if len(args) == 4 {
			return
		}
		for _, w := range words {
			rec(append(args[:len(args):len(args)], w))
		}
	}
	rec(nil)
}

// render spells keys as strings, nil for none.
func render(keys []statestore.Key) []string {
	if len(keys) == 0 {
		return nil
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

// touched renders the keys op touches, written keys first.
func touched(op chain.Operation) []string {
	keys, n, _ := keysOf(op)
	return render(keys[:n])
}

// written renders the keys op writes.
func written(op chain.Operation) []string {
	keys, n := WrittenKeys(op)
	return render(keys[:n])
}

// stringKeysOf is the key table as the string-keyed store built it, kept as
// the reference the typed keys must render to.
func stringKeysOf(op chain.Operation) (keys []string, written int) {
	a := op.Args
	checking := func(id string) string { return "acct/" + id + "/checking" }
	savings := func(id string) string { return "acct/" + id + "/savings" }
	switch {
	case len(a) == 0:
		return nil, 0
	case op.IEL == KeyValueName:
		if op.Function == FnSet {
			written = 1
		}
		return a[:1], written
	case op.IEL != BankingAppName:
		return nil, 0
	}
	switch op.Function {
	case FnCreateAccount:
		return []string{checking(a[0]), savings(a[0])}, 2
	case FnBalance:
		return []string{checking(a[0])}, 0
	case FnTransactSavings:
		return []string{savings(a[0])}, 1
	case FnDepositChecking:
		return []string{checking(a[0])}, 1
	case FnWriteCheck:
		return []string{checking(a[0]), savings(a[0])}, 1
	}
	if len(a) < 2 {
		return nil, 0
	}
	switch op.Function {
	case FnSendPayment:
		return []string{checking(a[0]), checking(a[1])}, 2
	case FnAmalgamate:
		return []string{checking(a[0]), savings(a[0]), checking(a[1])}, 3
	}
	return nil, 0
}

// TestKeysRenderAsStringKeys: for every function and argument list, the
// typed keys an operation touches and writes render, in order, as the
// string-keyed table's keys, so every text that names a key (an MVCC
// conflict names the stale one) stays as it was.
func TestKeysRenderAsStringKeys(t *testing.T) {
	for _, f := range functions {
		eachArgs(func(args []string) {
			o := op(f.iel, f.fn, args...)
			want, w := stringKeysOf(o)
			if got := touched(o); !slices.Equal(got, want) {
				t.Fatalf("%s touches %q, the string table %q", o, got, want)
			}
			if got := written(o); !slices.Equal(got, want[:w]) {
				t.Fatalf("%s writes %q, the string table %q", o, got, want[:w])
			}
		})
	}
}

func TestKeyString(t *testing.T) {
	for _, c := range []struct {
		key  statestore.Key
		want string
	}{
		{statestore.Key{Name: "k"}, "k"},
		{statestore.Key{Name: "acct/a/checking"}, "acct/a/checking"},
		{checkingKey("a"), "acct/a/checking"},
		{savingsKey("a"), "acct/a/savings"},
		{checkingKey("acc-7"), "acct/acc-7/checking"},
	} {
		if got := c.key.String(); got != c.want {
			t.Errorf("%#v renders %q, want %q", c.key, got, c.want)
		}
	}
}

// stringState is the string-keyed store: every key stored under the string
// it renders to.
type stringState map[string]string

func (m stringState) Get(key statestore.Key) (string, bool) {
	v, ok := m[key.String()]
	return v, ok
}

func (m stringState) Put(key statestore.Key, value string) { m[key.String()] = value }

func seededState() KVState {
	return KVState{
		{Name: "a"}: "1", {Name: "b"}: "2",
		checkingKey("a"): "50", savingsKey("a"): "20",
		checkingKey("b"): "7", savingsKey("b"): "0",
	}
}

// TestTypedKeysExecuteAsStringKeys: every function, on every argument list,
// leaves a typed-key state that renders to the state a string-keyed store
// is left in, and fails with the same error text.
func TestTypedKeysExecuteAsStringKeys(t *testing.T) {
	for _, f := range functions {
		eachArgs(func(args []string) {
			o := op(f.iel, f.fn, args...)
			typed, byString := seededState(), stringState{}
			for k, v := range typed {
				byString[k.String()] = v
			}
			typedErr, stringErr := Execute(o, typed), Execute(o, byString)
			rendered := stringState{}
			for k, v := range typed {
				rendered[k.String()] = v
			}
			if !maps.Equal(rendered, byString) {
				t.Fatalf("%s: typed keys leave %v, string keys %v", o, rendered, byString)
			}
			if (typedErr == nil) != (stringErr == nil) || typedErr != nil && typedErr.Error() != stringErr.Error() {
				t.Fatalf("%s: typed err %v, string err %v", o, typedErr, stringErr)
			}
			for _, s := range sentinels {
				if errors.Is(typedErr, s) != errors.Is(stringErr, s) {
					t.Fatalf("%s: typed err %v, string err %v differ under errors.Is(%v)", o, typedErr, stringErr, s)
				}
			}
		})
	}
}

// TestKeyValueKeyIsNotABalance: a KeyValue key spelled like a balance is a
// KeyValue key. Setting it leaves the account's balance alone, and the
// account's keys do not find it.
func TestKeyValueKeyIsNotABalance(t *testing.T) {
	st := KVState{}
	newAccount(t, st, "a", 10, 20)
	mustExec(t, st, op(KeyValueName, FnSet, "acct/a/checking", "999"))
	if c, s := balances(t, st, "a"); c != 10 || s != 20 {
		t.Fatalf("balances = %d/%d after a KeyValue Set on acct/a/checking, want 10/20", c, s)
	}
	if st[statestore.Key{Name: "acct/a/checking"}] != "999" {
		t.Fatalf("state = %v, want the KeyValue key set", st)
	}
	err := Execute(op(BankingAppName, FnBalance, "b"), KVState{{Name: "acct/b/checking"}: "5"})
	if !errors.Is(err, ErrAccountNotFound) {
		t.Fatalf("Balance over a KeyValue key spelled as b's balance: err = %v, want ErrAccountNotFound", err)
	}
}

// TestResolvingKeysAllocatesNothing: an operation's keys name its Args, so
// resolving them, for execution or for a conflict filter, allocates nothing.
func TestResolvingKeysAllocatesNothing(t *testing.T) {
	for _, f := range functions {
		o := op(f.iel, f.fn, "a", "b", "1")
		if n := testing.AllocsPerRun(100, func() { _, _, _ = keysOf(o); _, _ = WrittenKeys(o) }); n != 0 {
			t.Errorf("resolving the keys of %s allocates %v times, want 0", o, n)
		}
	}
}

func BenchmarkExecuteSendPayment(b *testing.B) {
	st := seededState()
	st[checkingKey("a")] = "1000000000"
	pay := op(BankingAppName, FnSendPayment, "a", "b", "1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Execute(pay, st); err != nil {
			b.Fatal(err)
		}
	}
}
