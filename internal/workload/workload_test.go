package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
)

func opSeq(g Gen, n int) []chain.Operation {
	out := make([]chain.Operation, n)
	for i := range out {
		out[i] = g(uint64(i))
	}
	return out
}

// Identical seeds must reproduce identical operation sequences — the
// contract the contention metrics' reproducibility rests on.
func TestGeneratorDeterminism(t *testing.T) {
	specs := []Spec{
		{Dist: Zipfian{S: 1.2}, Mix: KVMix{ReadPct: 50}, Keys: 256, Seed: 7},
		{Dist: Hotspot{}, Mix: KVMix{ReadPct: 0}, Keys: 128, Seed: 7},
		{Dist: SharedSequential{}, Mix: KVMix{ReadPct: 95}, Keys: 64, Seed: 7},
		{Dist: Zipfian{}, Mix: SmallBank{}, Keys: 100, Seed: 7},
		{Dist: Partitioned{}, Mix: SmallBank{}, Keys: 100, Seed: 7},
		{Dist: Partitioned{}, Mix: KVMix{ReadPct: 30}, Keys: 64, Seed: 7},
	}
	p := Placement{Client: 1, Clients: 4, Thread: 2, Threads: 8}
	for _, s := range specs {
		a := opSeq(s.Generator(p), 500)
		b := opSeq(s.Generator(p), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different op sequences", s.Name())
		}
	}
}

func TestGeneratorSeedChangesSequence(t *testing.T) {
	p := Placement{Clients: 1, Threads: 1}
	a := opSeq(Spec{Dist: Zipfian{}, Mix: SmallBank{}, Keys: 100, Seed: 1}.Generator(p), 200)
	b := opSeq(Spec{Dist: Zipfian{}, Mix: SmallBank{}, Keys: 100, Seed: 2}.Generator(p), 200)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestThreadStreamsAreDecorrelated(t *testing.T) {
	s := Spec{Dist: Zipfian{}, Mix: KVMix{ReadPct: 50}, Keys: 256, Seed: 3}
	a := opSeq(s.Generator(Placement{Clients: 2, Threads: 2, Thread: 0}), 200)
	b := opSeq(s.Generator(Placement{Clients: 2, Threads: 2, Thread: 1}), 200)
	if reflect.DeepEqual(a, b) {
		t.Fatal("distinct threads drew identical streams")
	}
}

// The partitioned distribution must preserve the paper's no-duplicates
// contract: no key is ever shared across threads or repeated by one writer.
func TestPartitionedKVDisjointAcrossThreads(t *testing.T) {
	s := Spec{Dist: Partitioned{}, Mix: KVMix{ReadPct: 0}, Keys: 64, Seed: 1}
	seen := make(map[string]string)
	for c := 0; c < 2; c++ {
		for th := 0; th < 4; th++ {
			p := Placement{Client: c, Clients: 2, Thread: th, Threads: 4}
			for _, op := range opSeq(s.Generator(p), 300) {
				key := op.Args[0]
				if owner, dup := seen[key]; dup {
					t.Fatalf("key %q written by %s and %s", key, owner, p.threadKey())
				}
				seen[key] = p.threadKey()
			}
		}
	}
}

func TestPartitionedSmallBankSlicesAreDisjoint(t *testing.T) {
	s := Spec{Dist: Partitioned{}, Mix: SmallBank{}, Keys: 64, Seed: 1}
	owner := make(map[string]string)
	for th := 0; th < 8; th++ {
		p := Placement{Clients: 1, Thread: th, Threads: 8}
		for _, op := range opSeq(s.Generator(p), 400) {
			accounts := []string{op.Args[0]}
			if op.Function == iel.FnSendPayment || op.Function == iel.FnAmalgamate {
				accounts = append(accounts, op.Args[1])
			}
			for _, a := range accounts {
				if prev, ok := owner[a]; ok && prev != p.threadKey() {
					t.Fatalf("account %q touched by %s and %s", a, prev, p.threadKey())
				}
				owner[a] = p.threadKey()
			}
		}
	}
}

// Zipfian frequencies must actually be skewed: the hottest key should
// absorb far more than the uniform share, and low indices should dominate.
func TestZipfianEmpiricalSkew(t *testing.T) {
	const keys, draws = 1000, 200000
	stream := Zipfian{S: 1.2}.Stream(keys, 0, 99)
	counts := make([]int, keys)
	for i := 0; i < draws; i++ {
		counts[stream(uint64(i))]++
	}
	uniform := float64(draws) / keys
	if got := float64(counts[0]); got < 20*uniform {
		t.Errorf("hottest key drew %.0f ops, want >= 20x the uniform share %.0f", got, uniform)
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if frac := float64(top10) / draws; frac < 0.5 {
		t.Errorf("top-10 keys absorbed %.2f of ops, want >= 0.5", frac)
	}
}

// Hotspot must put ~HotOps of the draws in the hot fraction of the space.
func TestHotspotEmpiricalFractions(t *testing.T) {
	const keys, draws = 1000, 100000
	h := Hotspot{HotKeys: 0.1, HotOps: 0.9}
	stream := h.Stream(keys, 3, 42)
	hot := 0
	for i := 0; i < draws; i++ {
		if stream(uint64(i)) < uint64(keys/10) {
			hot++
		}
	}
	frac := float64(hot) / draws
	if frac < 0.88 || frac > 0.92 {
		t.Errorf("hot fraction = %.3f, want 0.90 +/- 0.02", frac)
	}
}

func TestSharedSequentialWraps(t *testing.T) {
	stream := SharedSequential{}.Stream(8, 0, 0)
	for i := uint64(0); i < 32; i++ {
		if got := stream(i); got != i%8 {
			t.Fatalf("stream(%d) = %d, want %d", i, got, i%8)
		}
	}
}

// Every generated operation must execute against a preloaded state (aside
// from deliberate insufficient-funds aborts), i.e. the generators emit
// well-formed IEL calls.
func TestGeneratedOpsAreWellFormed(t *testing.T) {
	for _, spec := range []Spec{
		{Dist: Zipfian{}, Mix: KVMix{ReadPct: 50}, Keys: 32, Seed: 5},
		{Dist: Hotspot{}, Mix: SmallBank{}, Keys: 32, Seed: 5},
	} {
		st := iel.KVState{}
		for _, op := range spec.SetupOps() {
			if err := iel.Execute(op, st); err != nil {
				t.Fatalf("%s: setup op %v failed: %v", spec.Name(), op, err)
			}
		}
		g := spec.Generator(Placement{Clients: 1, Threads: 1})
		for i := uint64(0); i < 2000; i++ {
			op := g(i)
			err := iel.Execute(op, st)
			if err != nil && !strings.Contains(err.Error(), "insufficient funds") {
				t.Fatalf("%s: op %v failed: %v", spec.Name(), op, err)
			}
		}
	}
}

func TestSmallBankProfileFrequencies(t *testing.T) {
	g := Spec{Dist: Zipfian{}, Mix: SmallBank{}, Keys: 64, Seed: 11}.Generator(Placement{Clients: 1, Threads: 1})
	counts := map[string]int{}
	const n = 20000
	for i := uint64(0); i < n; i++ {
		counts[g(i).Function]++
	}
	want := map[string]float64{
		iel.FnTransactSavings: 0.25,
		iel.FnDepositChecking: 0.25,
		iel.FnWriteCheck:      0.25,
		iel.FnSendPayment:     0.15,
		iel.FnAmalgamate:      0.10,
	}
	for fn, frac := range want {
		got := float64(counts[fn]) / n
		if got < frac-0.02 || got > frac+0.02 {
			t.Errorf("%s fraction = %.3f, want %.2f +/- 0.02", fn, got, frac)
		}
	}
}

func TestParseSpecRoundTrips(t *testing.T) {
	sp, err := ParseSpec("smallbank", "zipfian:1.30", 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Name(); got != "smallbank/zipfian:1.30/keys=256" {
		t.Fatalf("Name() = %q", got)
	}
	if _, err := ParseSpec("nope", "partitioned", 0, 0); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if _, err := ParseSpec("write", "nope", 0, 0); err == nil {
		t.Fatal("unknown dist accepted")
	}
	if _, err := DistByName("zipfian:0.5"); err == nil {
		t.Fatal("zipfian skew <= 1 accepted")
	}
	for _, name := range []string{"partitioned", "sequential", "zipfian", "zipfian:1.5", "hotspot", "hotspot:0.2", "hotspot:0.2:0.8"} {
		if _, err := DistByName(name); err != nil {
			t.Errorf("DistByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"write", "ycsb-a", "ycsb-b", "ycsb-c", "kv:30", "smallbank"} {
		if _, err := MixByName(name); err != nil {
			t.Errorf("MixByName(%q): %v", name, err)
		}
	}
}

func TestSetupOps(t *testing.T) {
	if ops := (Spec{Dist: Partitioned{}, Mix: KVMix{}, Keys: 16}).SetupOps(); ops != nil {
		t.Fatalf("partitioned KV wants no setup, got %d ops", len(ops))
	}
	shared := Spec{Dist: Zipfian{}, Mix: KVMix{ReadPct: 100}, Keys: 16}
	if got := len(shared.SetupOps()); got != 16 {
		t.Fatalf("shared KV setup = %d ops, want 16", got)
	}
	bank := Spec{Dist: Partitioned{}, Mix: SmallBank{}, Keys: 16}
	ops := bank.SetupOps()
	if len(ops) != 16 || ops[0].Function != iel.FnCreateAccount {
		t.Fatalf("smallbank setup = %v", ops[:1])
	}
}

// Two-account SmallBank profiles must never self-target, even in
// degenerate single-account configurations (several execution models
// mishandle self-transfers, and Corda would build duplicate-input UTXOs).
func TestSmallBankNeverSelfTargets(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		p    Placement
	}{
		{"shared-single-key", Spec{Dist: SharedSequential{}, Mix: SmallBank{}, Keys: 1, Seed: 3}, Placement{Clients: 1, Threads: 1}},
		{"partitioned-single-account-slice", Spec{Dist: Partitioned{}, Mix: SmallBank{}, Keys: 4, Seed: 3}, Placement{Clients: 2, Thread: 3, Threads: 4}},
		{"zipfian", Spec{Dist: Zipfian{}, Mix: SmallBank{}, Keys: 8, Seed: 3}, Placement{Clients: 1, Threads: 1}},
	}
	for _, tc := range cases {
		g := tc.spec.Generator(tc.p)
		for i := uint64(0); i < 3000; i++ {
			op := g(i)
			if op.Function == iel.FnSendPayment || op.Function == iel.FnAmalgamate {
				if op.Args[0] == op.Args[1] {
					t.Fatalf("%s: %s self-targets %q at op %d", tc.name, op.Function, op.Args[0], i)
				}
			}
		}
	}
}

// The generated strings are keys of the model: each must stay the string its
// fmt.Sprintf form produced, for every index width and any thread key,
// including one with slashes and one longer than the assembly buffer.
func TestKeyShapesMatchSprintf(t *testing.T) {
	long := strings.Repeat("client/", 20) + "7"
	for _, i := range []uint64{0, 9, 10, 1 << 32, math.MaxUint64} {
		for _, threadKey := range []string{"c0/t3", "coconut-client-2/15", "", long} {
			if got, want := PartitionedKVKey(threadKey, i), fmt.Sprintf("kv/%s/%d", threadKey, i); got != want {
				t.Errorf("PartitionedKVKey(%q, %d) = %q, want %q", threadKey, i, got, want)
			}
			if got, want := PartitionedAccountKey(threadKey, i), fmt.Sprintf("acc/%s/%d", threadKey, i); got != want {
				t.Errorf("PartitionedAccountKey(%q, %d) = %q, want %q", threadKey, i, got, want)
			}
		}
		if got, want := SharedKVKey(i), fmt.Sprintf("wlk-%d", i); got != want {
			t.Errorf("SharedKVKey(%d) = %q, want %q", i, got, want)
		}
		if got, want := SharedAccountID(i), fmt.Sprintf("wla-%d", i); got != want {
			t.Errorf("SharedAccountID(%d) = %q, want %q", i, got, want)
		}
		if got, want := KVValue(i), fmt.Sprintf("value-%d", i); got != want {
			t.Errorf("KVValue(%d) = %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = PartitionedAccountKey("coconut-client-2/15", 1<<32) }); n != 1 {
		t.Errorf("PartitionedAccountKey allocates %v times, want 1", n)
	}
}
