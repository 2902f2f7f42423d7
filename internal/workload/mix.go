package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
)

// Mix composes what the generated operations do: which IEL functions run,
// in what ratio, over the keys the distribution selects.
type Mix interface {
	// Name identifies the mix in reports and flags.
	Name() string
	// gen builds the per-thread operation generator; idx is the thread's
	// key-index stream and rng its private deterministic RNG.
	gen(s Spec, p Placement, idx func(uint64) uint64, rng *rand.Rand) Gen
	// setup returns the world-state preload this mix requires.
	setup(s Spec) []chain.Operation
}

// KVMix is a YCSB-style read/write mix over the KeyValue IEL: ReadPct% of
// operations are Gets, the rest Sets. The named YCSB analogues are
// ReadPct = 50 (A, update-heavy), 95 (B, read-mostly), and 100 (C,
// read-only); ReadPct = 0 is the pure-write contention mix.
type KVMix struct {
	// ReadPct is the percentage of read operations [0, 100].
	ReadPct int
}

// Name implements Mix.
func (m KVMix) Name() string {
	switch m.ReadPct {
	case 0:
		return "write"
	case 50:
		return "ycsb-a"
	case 95:
		return "ycsb-b"
	case 100:
		return "ycsb-c"
	default:
		return fmt.Sprintf("kv:%d", m.ReadPct)
	}
}

func (m KVMix) gen(s Spec, p Placement, idx func(uint64) uint64, rng *rand.Rand) Gen {
	if s.Dist.Shared() {
		// Shared key space, preloaded by setup: reads always find a key,
		// writes overwrite hot keys and collide in validation.
		return func(i uint64) chain.Operation {
			k := SharedKVKey(idx(i))
			if rng.Intn(100) < m.ReadPct {
				return chain.Operation{IEL: iel.KeyValueName, Function: iel.FnGet, Args: []string{k}}
			}
			return chain.Operation{IEL: iel.KeyValueName, Function: iel.FnSet,
				Args: []string{k, KVValue(i)}}
		}
	}
	// Partitioned: writes walk the thread's own range sequentially (the
	// paper's no-duplicates contract) and reads target keys this thread
	// wrote at least readLag writes ago — far enough behind the write
	// frontier that the read can never race its own Set through an
	// execute-order-validate pipeline (a Get endorsed against a key whose
	// Set is still in flight would MVCC-conflict once the Set commits).
	// Threads that have not written readLag keys yet write instead, so the
	// control stays conflict-free and abort-free in short runs too.
	threadKey := p.threadKey()
	var written uint64
	return func(i uint64) chain.Operation {
		if written > partitionedReadLag && rng.Intn(100) < m.ReadPct {
			k := PartitionedKVKey(threadKey, rng.Uint64()%(written-partitionedReadLag))
			return chain.Operation{IEL: iel.KeyValueName, Function: iel.FnGet, Args: []string{k}}
		}
		k := PartitionedKVKey(threadKey, written)
		written++
		return chain.Operation{IEL: iel.KeyValueName, Function: iel.FnSet,
			Args: []string{k, KVValue(i)}}
	}
}

// partitionedReadLag is how many writes a partitioned read trails the write
// frontier by. It must exceed any realistic per-thread in-flight depth
// (a 64-deep backlog at the paper's per-thread rates is over a second of
// pipeline lag).
const partitionedReadLag = 64

func (m KVMix) setup(s Spec) []chain.Operation {
	if !s.Dist.Shared() {
		return nil
	}
	ops := make([]chain.Operation, s.Keys)
	for i := range ops {
		ops[i] = chain.Operation{IEL: iel.KeyValueName, Function: iel.FnSet,
			Args: []string{SharedKVKey(uint64(i)), "init-" + strconv.Itoa(i)}}
	}
	return ops
}

// SmallBank is the SmallBank-style transaction family over the BankingApp
// IEL: TransactSavings (25%), DepositChecking (25%), WriteCheck (25%),
// SendPayment (15%), and Amalgamate (10%) over a preloaded account pool.
// Every profile reads account balances before writing them, so skewed
// account selection provokes MVCC read conflicts on Fabric and
// insufficient-funds aborts on the account-model systems as balances
// random-walk into their floors.
type SmallBank struct{}

// Initial per-account balances; amounts below are sized so balances drift
// across the zero floor during a run, keeping semantic aborts live.
const smallBankInitial = 100

// Name implements Mix.
func (SmallBank) Name() string { return "smallbank" }

func (SmallBank) gen(s Spec, p Placement, idx func(uint64) uint64, rng *rand.Rand) Gen {
	// Account selection. Shared distributions draw primaries and
	// counterparties from the whole pool, so hot accounts collide across
	// threads — the contention the family exists to provoke. The
	// partitioned control instead carves the pool into disjoint per-thread
	// slices and splits each slice into paired primary/counterparty
	// halves: account reuse is then half a slice of sends apart, beyond
	// any realistic in-flight pipeline depth, so the control neither
	// conflicts across threads nor races itself through
	// execute-order-validate pipelines.
	var sel, pair func(i uint64) (a, b uint64)
	if s.Dist.Shared() {
		keys := uint64(s.Keys)
		sel = func(i uint64) (uint64, uint64) { return idx(i) % keys, 0 }
		pair = func(i uint64) (uint64, uint64) {
			a := idx(i) % keys
			b := idx(i+1) % keys
			if b == a && keys > 1 {
				b = (a + 1) % keys
			}
			return a, b
		}
	} else {
		stream, streams := uint64(p.stream()), uint64(p.streams())
		lo := stream * uint64(s.Keys) / streams
		hi := (stream + 1) * uint64(s.Keys) / streams
		if hi <= lo {
			hi = lo + 1
		}
		half := (hi - lo) / 2
		if half < 1 {
			half = 1
		}
		sel = func(i uint64) (uint64, uint64) { return lo + idx(i)%half, 0 }
		pair = func(i uint64) (uint64, uint64) {
			a := lo + idx(i)%half
			b := a + half
			if b >= hi { // degenerate one-account slice
				b = a
			}
			return a, b
		}
	}
	return func(i uint64) chain.Operation {
		roll := rng.Intn(100)
		if roll >= 75 {
			// Two-account profiles. They need two distinct accounts: in
			// degenerate single-account configurations (shared Keys=1, a
			// one-account partitioned slice) they degrade to a deposit
			// rather than a self-transfer, which several execution models
			// mishandle.
			ai, bi := pair(i)
			if bi == ai {
				amt := 1 + rng.Int63n(10)
				return chain.Operation{IEL: iel.BankingAppName, Function: iel.FnDepositChecking,
					Args: []string{SharedAccountID(ai), strconv.FormatInt(amt, 10)}}
			}
			if roll < 90 {
				amt := 1 + rng.Int63n(10)
				return chain.Operation{IEL: iel.BankingAppName, Function: iel.FnSendPayment,
					Args: []string{SharedAccountID(ai), SharedAccountID(bi), strconv.FormatInt(amt, 10)}}
			}
			return chain.Operation{IEL: iel.BankingAppName, Function: iel.FnAmalgamate,
				Args: []string{SharedAccountID(ai), SharedAccountID(bi)}}
		}
		ai, _ := sel(i)
		switch {
		case roll < 25:
			// Deposit or withdraw savings; withdrawals can hit the floor.
			amt := rng.Int63n(61) - 30
			return chain.Operation{IEL: iel.BankingAppName, Function: iel.FnTransactSavings,
				Args: []string{SharedAccountID(ai), strconv.FormatInt(amt, 10)}}
		case roll < 50:
			amt := 1 + rng.Int63n(20)
			return chain.Operation{IEL: iel.BankingAppName, Function: iel.FnDepositChecking,
				Args: []string{SharedAccountID(ai), strconv.FormatInt(amt, 10)}}
		default: // roll < 75
			amt := 1 + rng.Int63n(50)
			return chain.Operation{IEL: iel.BankingAppName, Function: iel.FnWriteCheck,
				Args: []string{SharedAccountID(ai), strconv.FormatInt(amt, 10)}}
		}
	}
}

func (SmallBank) setup(s Spec) []chain.Operation {
	bal := strconv.Itoa(smallBankInitial)
	ops := make([]chain.Operation, s.Keys)
	for i := range ops {
		ops[i] = chain.Operation{IEL: iel.BankingAppName, Function: iel.FnCreateAccount,
			Args: []string{SharedAccountID(uint64(i)), bal, bal}}
	}
	return ops
}

// MixByName parses a mix flag value: "write", "ycsb-a", "ycsb-b", "ycsb-c",
// "kv:READPCT", or "smallbank".
func MixByName(name string) (Mix, error) {
	switch {
	case name == "" || name == "write":
		return KVMix{ReadPct: 0}, nil
	case name == "ycsb-a":
		return KVMix{ReadPct: 50}, nil
	case name == "ycsb-b":
		return KVMix{ReadPct: 95}, nil
	case name == "ycsb-c":
		return KVMix{ReadPct: 100}, nil
	case strings.HasPrefix(name, "kv:"):
		pct, err := strconv.Atoi(strings.TrimPrefix(name, "kv:"))
		if err != nil || pct < 0 || pct > 100 {
			return nil, fmt.Errorf("workload: bad read percentage in %q (want kv:0..100)", name)
		}
		return KVMix{ReadPct: pct}, nil
	case name == "smallbank":
		return SmallBank{}, nil
	default:
		return nil, fmt.Errorf("workload: unknown mix %q (want write, ycsb-a, ycsb-b, ycsb-c, kv:PCT, or smallbank)", name)
	}
}

// MixNames lists the accepted operation-mix specs for help output.
func MixNames() []string {
	return []string{"write", "ycsb-a", "ycsb-b", "ycsb-c", "kv:READPCT", "smallbank"}
}
