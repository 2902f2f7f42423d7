// Package notary implements Corda's notary service: the uniqueness oracle
// that prevents double spends by recording which transaction consumed each
// input state. Corda has no blocks and no block consensus — a transaction is
// final once the required signatures are collected and the notary confirms
// none of its inputs were previously consumed (paper §2).
//
// The package also provides the signing coordinator that distinguishes the
// two Corda editions the paper benchmarks: Corda OS collects counterparty
// signatures serially ("Corda OS does this serially", §5.1), while Corda
// Enterprise signs in parallel across nodes (§5.2) — the single largest
// factor in their 10x performance gap.
package notary

import (
	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
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

// SigningMode selects how counterparty signatures are gathered during
// transaction finality.
type SigningMode int

// Signing modes.
const (
	// Serial gathers one signature at a time — Corda OS behaviour.
	Serial SigningMode = iota + 1
	// Parallel gathers all signatures concurrently — Corda Enterprise.
	Parallel
)

// Signer produces one party's signature over a transaction; implementations
// typically include simulated flow-processing delay.
type Signer func(party string, txID crypto.Hash) (crypto.Signature, error)

// CollectSignatures gathers signatures from all parties using the given
// mode. In Serial mode the total latency is the sum of per-party latencies;
// in Parallel mode it is the maximum. Any failure aborts the collection.
// Parallel collection runs each party's signing on its own clock actor, so
// the concurrent waits overlap on the clock.
func CollectSignatures(clk *clock.AutoVirtual, mode SigningMode, parties []string, txID crypto.Hash, sign Signer) ([]crypto.Signature, error) {
	switch mode {
	case Parallel:
		return collectParallel(clk, parties, txID, sign)
	default:
		return collectSerial(parties, txID, sign)
	}
}

func collectSerial(parties []string, txID crypto.Hash, sign Signer) ([]crypto.Signature, error) {
	sigs := make([]crypto.Signature, 0, len(parties))
	for _, p := range parties {
		sig, err := sign(p, txID)
		if err != nil {
			return nil, err
		}
		sigs = append(sigs, sig)
	}
	return sigs, nil
}

func collectParallel(clk *clock.AutoVirtual, parties []string, txID crypto.Hash, sign Signer) ([]crypto.Signature, error) {
	collected := make([]crypto.Signature, len(parties))
	errs := make([]error, len(parties))
	// The txID prefix keeps actor names unique when several flows collect
	// from the same counterparties concurrently.
	names := make([]string, len(parties))
	prefix := "notary-sign/" + txID.Short() + "/"
	for i, p := range parties {
		names[i] = prefix + p
	}
	clock.Go(clk, names, func(i int) {
		collected[i], errs[i] = sign(parties[i], txID)
	})()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return collected, nil
}
