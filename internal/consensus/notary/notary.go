// Package notary implements Corda's notary service: the uniqueness oracle
// that prevents double spends by recording which transaction consumed each
// input state. Corda has no blocks and no block consensus — a transaction is
// final once the required signatures are collected and the notary confirms
// none of its inputs were previously consumed (paper §2). Signature
// collection is the flow's own cost and lives with the Corda driver; this
// package is the uniqueness service only.
package notary

import (
	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/crypto"
)

// Service is the uniqueness service. One instance backs one notary identity.
type Service struct {
	// Name identifies the notary.
	Name string

	consumed map[chain.StateRef]crypto.Hash
}

// NewService creates an empty notary.
func NewService(name string) *Service {
	return &Service{
		Name:     name,
		consumed: make(map[chain.StateRef]crypto.Hash),
	}
}

// Notarise checks and consumes the given input states on behalf
// of txID. On conflict it returns a *chain.DoubleSpendError naming the
// earlier transaction and consumes nothing.
func (s *Service) Notarise(txID crypto.Hash, inputs []chain.StateRef) error {
	for _, in := range inputs {
		if by, ok := s.consumed[in]; ok {
			return &chain.DoubleSpendError{Ref: in, ConsumedBy: by}
		}
	}
	for _, in := range inputs {
		s.consumed[in] = txID
	}
	return nil
}

// ConsumedCount reports how many states the notary has recorded as spent.
func (s *Service) ConsumedCount() int {
	return len(s.consumed)
}

// WasConsumed reports whether a state ref is recorded as spent and by whom.
func (s *Service) WasConsumed(ref chain.StateRef) (crypto.Hash, bool) {
	by, ok := s.consumed[ref]
	return by, ok
}
