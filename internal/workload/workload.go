// Package workload is the contention workload plane: a generator layer that
// subsumes and generalizes the paper's per-thread partitioned operation
// generators (coconut.NewOpGen) with pluggable key distributions and
// composable operation mixes.
//
// The paper's six benchmarks deliberately partition key spaces per thread so
// "no duplicates occur during writing" (§4.1) — the grid therefore never
// measures the regime where permissioned systems actually diverge:
// conflicting access to shared state (cf. Thakkar et al., arXiv:1805.11390,
// on Fabric's MVCC collapse). This package opens that axis:
//
//   - Dist selects the key index each operation targets: the paper-faithful
//     per-thread partitioned scheme (the default, provably conflict-free),
//     seeded Zipfian skew, a hotspot distribution (a fraction of operations
//     concentrated on a fraction of keys), and shared-sequential (every
//     thread walks the same sequence — the worst case).
//   - Mix shapes what the operations do: YCSB-A/B/C analogues over the
//     KeyValue IEL, a pure-write mix, and a SmallBank-style transaction
//     family over the BankingApp IEL (TransactSavings, DepositChecking,
//     WriteCheck, Amalgamate, SendPayment) that provokes cross-account
//     read-modify-write conflicts.
//
// Determinism contract: every workload thread derives a private RNG stream
// from (Spec.Seed, global thread index) via a SplitMix64 mix, and the key
// distributions draw only from that stream — identical seeds reproduce
// identical operation sequences run over run, so measured abort rates are
// reproducible under clock.AutoVirtual and comparable across systems.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"github.com/coconut-bench/coconut/internal/chain"
)

// Gen yields the i-th operation for one workload thread. It is the same
// shape as coconut.OpGen, so generators plug directly into the COCONUT
// client.
type Gen func(i uint64) chain.Operation

// Placement identifies one workload thread within the whole run. The
// partitioned distribution uses it to carve disjoint key ranges; every
// distribution uses the global stream index to decorrelate RNG streams.
type Placement struct {
	// Client is the client application index, Clients the total number of
	// client applications.
	Client, Clients int
	// Thread is the workload thread within the client, Threads the workload
	// threads per client.
	Thread, Threads int
}

// stream returns the global thread index: the RNG stream selector.
func (p Placement) stream() int { return p.Client*p.Threads + p.Thread }

// streams returns the total number of workload threads in the run.
func (p Placement) streams() int {
	n := p.Clients * p.Threads
	if n < 1 {
		return 1
	}
	return n
}

// threadKey is the per-thread key namespace for partitioned schemes.
func (p Placement) threadKey() string {
	return fmt.Sprintf("c%d/t%d", p.Client, p.Thread)
}

// Spec describes one contention workload: a key distribution, an operation
// mix, and the shared key-space size.
type Spec struct {
	// Dist is the key distribution; nil defaults to Partitioned (the
	// paper-faithful conflict-free scheme).
	Dist Dist
	// Mix is the operation mix; nil defaults to the pure-write KeyValue mix.
	Mix Mix
	// Keys sizes the shared key space (KV mixes) or account pool
	// (SmallBank). Default 1024. Smaller spaces mean hotter contention.
	Keys int
	// Seed drives every per-thread RNG stream; identical seeds reproduce
	// identical operation sequences.
	Seed int64
}

func (s *Spec) fill() {
	if s.Dist == nil {
		s.Dist = Partitioned{}
	}
	if s.Mix == nil {
		s.Mix = KVMix{ReadPct: 0}
	}
	if s.Keys <= 0 {
		s.Keys = 1024
	}
}

// Name renders the spec for result rows and flags, e.g.
// "smallbank/zipfian:1.10/keys=256".
func (s Spec) Name() string {
	s.fill()
	return fmt.Sprintf("%s/%s/keys=%d", s.Mix.Name(), s.Dist.Name(), s.Keys)
}

// Generator builds the deterministic operation generator for one workload
// thread.
func (s Spec) Generator(p Placement) Gen {
	s.fill()
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(s.Seed) + uint64(p.stream())*0x9e3779b97f4a7c15))))
	idx := s.Dist.Stream(s.Keys, p.stream(), s.Seed)
	return s.Mix.gen(s, p, idx, rng)
}

// SetupOps returns the operations that must be preloaded into every node's
// world state before load starts (the YCSB load-phase analogue): the shared
// key space for KV mixes over shared distributions, the account pool for
// SmallBank. Partitioned KV workloads need no setup and return nil.
func (s Spec) SetupOps() []chain.Operation {
	s.fill()
	return s.Mix.setup(s)
}

// ParseSpec builds a Spec from the flag-level names: mix (e.g. "smallbank",
// "ycsb-a"), dist (e.g. "zipfian:1.2", "hotspot", "partitioned"), and the
// key-space size (0 = default).
func ParseSpec(mix, dist string, keys int, seed int64) (Spec, error) {
	m, err := MixByName(mix)
	if err != nil {
		return Spec{}, err
	}
	d, err := DistByName(dist)
	if err != nil {
		return Spec{}, err
	}
	sp := Spec{Dist: d, Mix: m, Keys: keys, Seed: seed}
	sp.fill()
	return sp, nil
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed mix used
// to derive independent per-thread RNG seeds from (seed, stream).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Key shapes shared by the generator plane and by coconut.NewOpGen (which
// delegates here, keeping the paper benchmarks and the contention plane on
// one key-formatting scheme).

// PartitionedKVKey is the paper's per-thread KeyValue key: unique per
// (thread, index), so concurrent writers never collide (§4.1).
func PartitionedKVKey(threadKey string, i uint64) string {
	return indexed(i, "kv/", threadKey, "/")
}

// PartitionedAccountKey is the paper's per-thread BankingApp account ID.
func PartitionedAccountKey(threadKey string, i uint64) string {
	return indexed(i, "acc/", threadKey, "/")
}

// SharedKVKey addresses the contention plane's shared KeyValue space.
func SharedKVKey(idx uint64) string { return indexed(idx, "wlk-") }

// SharedAccountID addresses the contention plane's shared account pool.
func SharedAccountID(idx uint64) string { return indexed(idx, "wla-") }

// KVValue is the value the i-th generated KeyValue Set stores.
func KVValue(i uint64) string { return indexed(i, "value-") }

// indexed returns the parts joined and then i in decimal. Every generated
// operation names its keys through it, so the string is assembled in a stack
// buffer and allocated once.
func indexed(i uint64, parts ...string) string {
	var buf [64]byte
	b := buf[:0]
	for _, p := range parts {
		b = append(b, p...)
	}
	return string(strconv.AppendUint(b, i, 10))
}
