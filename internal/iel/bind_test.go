package iel

import (
	"errors"
	"maps"
	"testing"

	"github.com/coconut-bench/coconut/internal/chain"
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

func seededState() KVState {
	return KVState{
		"a": "1", "b": "2",
		"acct/a/checking": "50", "acct/a/savings": "20",
		"acct/b/checking": "7", "acct/b/savings": "0",
	}
}

// TestBindChangesNothing: a bound operation leaves the state an unbound one
// leaves, fails with the same error, and hashes to the same transaction ID.
func TestBindChangesNothing(t *testing.T) {
	for _, f := range functions {
		eachArgs(func(args []string) {
			plain := op(f.iel, f.fn, args...)
			bound := Bind(plain)

			plainSt, boundSt := seededState(), seededState()
			plainErr, boundErr := Execute(plain, plainSt), Execute(bound, boundSt)
			if !maps.Equal(plainSt, boundSt) {
				t.Fatalf("%s: states differ: unbound %v, bound %v", plain, plainSt, boundSt)
			}
			if (plainErr == nil) != (boundErr == nil) || plainErr != nil && plainErr.Error() != boundErr.Error() {
				t.Fatalf("%s: unbound err %v, bound err %v", plain, plainErr, boundErr)
			}
			for _, s := range sentinels {
				if errors.Is(plainErr, s) != errors.Is(boundErr, s) {
					t.Fatalf("%s: unbound err %v, bound err %v differ under errors.Is(%v)", plain, plainErr, boundErr, s)
				}
			}
			if a, b := chain.NewTransaction("c", 7, plain).ID, chain.NewTransaction("c", 7, bound).ID; a != b {
				t.Fatalf("%s: binding moved the transaction ID", plain)
			}
		})
	}
}

// TestKeysWrittenFirst: bound or not, the written keys are a prefix of the
// touched keys, and a bound operation reports the keys an unbound one does.
func TestKeysWrittenFirst(t *testing.T) {
	for _, f := range functions {
		eachArgs(func(args []string) {
			plain := op(f.iel, f.fn, args...)
			touched, written := TouchedKeys(plain), WrittenKeys(plain)
			if len(written) > len(touched) {
				t.Fatalf("%s: written %v, touched %v", plain, written, touched)
			}
			for i := range written {
				if written[i] != touched[i] {
					t.Fatalf("%s: written %v is not a prefix of touched %v", plain, written, touched)
				}
			}
			bound := Bind(plain)
			if got := TouchedKeys(bound); !equalKeys(got, touched) {
				t.Fatalf("%s: bound touches %v, unbound %v", plain, got, touched)
			}
			if got := WrittenKeys(bound); !equalKeys(got, written) {
				t.Fatalf("%s: bound writes %v, unbound %v", plain, got, written)
			}
		})
	}
}

// equalKeys also tells nil from empty: WrittenKeys of a read is nil.
func equalKeys(a, b []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBoundKeysAreRead: what a bound operation executes against is op.Keys,
// so no replica builds the strings again.
func TestBoundKeysAreRead(t *testing.T) {
	pay := Bind(op(BankingAppName, FnSendPayment, "a", "b", "5"))
	if n := testing.AllocsPerRun(100, func() { _ = TouchedKeys(pay); _ = WrittenKeys(pay) }); n != 0 {
		t.Errorf("TouchedKeys+WrittenKeys of a bound operation allocate %v times, want 0", n)
	}
	set := op(KeyValueName, FnSet, "k", "v")
	if n := testing.AllocsPerRun(100, func() { set = Bind(set) }); n != 0 {
		t.Errorf("binding a KeyValue operation allocates %v times, want 0", n)
	}
}

func benchmarkSendPayment(b *testing.B, pay chain.Operation) {
	st := seededState()
	st["acct/a/checking"] = "1000000000"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Execute(pay, st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteSendPaymentBound(b *testing.B) {
	benchmarkSendPayment(b, Bind(op(BankingAppName, FnSendPayment, "a", "b", "1")))
}

func BenchmarkExecuteSendPaymentUnbound(b *testing.B) {
	benchmarkSendPayment(b, op(BankingAppName, FnSendPayment, "a", "b", "1"))
}
