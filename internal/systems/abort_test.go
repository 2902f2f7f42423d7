package systems

import (
	"errors"
	"fmt"
	"testing"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
)

// TestClassifyAbort: every error a driver reports maps to its canonical
// code through any wrapping, and an error no arm knows is exec-failed.
func TestClassifyAbort(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{statestore.ErrMVCCConflict, AbortMVCCConflict},
		{iel.ErrInsufficientFunds, AbortInsufficientFunds},
		{iel.ErrAccountExists, AbortAccountExists},
		{iel.ErrAccountNotFound, AbortAccountNotFound},
		{iel.ErrKeyNotFound, AbortKeyNotFound},
		{&chain.DoubleSpendError{}, AbortDoubleSpend},
		{errors.New("contract reverted"), AbortExecFailed},
	} {
		name := tc.want
		if name == "" {
			name = "nil"
		}
		t.Run(name, func(t *testing.T) {
			if got := ClassifyAbort(tc.err); got != tc.want {
				t.Fatalf("ClassifyAbort(%v) = %q, want %q", tc.err, got, tc.want)
			}
			if tc.err == nil {
				return
			}
			wrapped := fmt.Errorf("replica 2: %w", tc.err)
			if got := ClassifyAbort(wrapped); got != tc.want {
				t.Fatalf("ClassifyAbort(%v) = %q, want %q", wrapped, got, tc.want)
			}
		})
	}
}
