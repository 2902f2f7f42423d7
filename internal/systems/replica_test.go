package systems

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/wal"
)

func testReplicas(n int) []Replica { return testReplicasOn(n, clock.NewAutoVirtual(), nil) }

func testReplicasOn(n int, clk *clock.AutoVirtual, w *wal.Options) []Replica {
	return NewLedgerCluster("Fake", NodeIDs("fake", n), Env{Clock: clk, WAL: w}, func() int { return 0 }).Replicas()
}

// txOf is a transaction of ops, as a client builds it.
func txOf(seq uint64, ops ...chain.Operation) *chain.Transaction {
	return chain.NewTransaction("c", seq, ops...)
}

// kv is the state key of the KeyValue key name.
func kv(name string) statestore.Key { return statestore.Key{Name: name} }

func set(k, v string) chain.Operation {
	return chain.Operation{IEL: iel.KeyValueName, Function: iel.FnSet, Args: []string{k, v}}
}

func get(k string) chain.Operation {
	return chain.Operation{IEL: iel.KeyValueName, Function: iel.FnGet, Args: []string{k}}
}

func bank(fn string, args ...string) chain.Operation {
	return chain.Operation{IEL: iel.BankingAppName, Function: fn, Args: args}
}

func TestReplicaExecuteTxStopsAtFirstFailure(t *testing.T) {
	r := &testReplicas(1)[0]
	err := r.executeTx(txOf(1, set("k1", "v1"), get("missing"), set("k2", "v2")), 5, 3)
	if !errors.Is(err, iel.ErrKeyNotFound) {
		t.Fatalf("err = %v, want ErrKeyNotFound", err)
	}
	want := statestore.VersionedValue{Value: "v1", Version: statestore.Version{BlockNum: 5, TxNum: 3}}
	if got, ok := r.State.Get(kv("k1")); !ok || got != want {
		t.Errorf("k1 = %+v, %v; want %+v: what ran before the failure stays written", got, ok, want)
	}
	if _, ok := r.State.Get(kv("k2")); ok {
		t.Error("k2 was written after the failing operation")
	}
	// The adapter is reused: the next call writes at its own version.
	if err := r.executeTx(txOf(2, set("k1", "v1'")), 6, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.State.Get(kv("k1")); got.Value != "v1'" || got.Version != (statestore.Version{BlockNum: 6}) {
		t.Errorf("k1 = %+v after a second executeTx at {6 0}", got)
	}
}

func TestReplicaApplyTxSkipsFailure(t *testing.T) {
	r := &testReplicas(1)[0]
	r.applyTx(txOf(1, set("k1", "v1"), get("missing"), set("k2", "v2")), 5, 3)
	for _, k := range []string{"k1", "k2"} {
		if got, ok := r.State.Get(kv(k)); !ok || got.Version != (statestore.Version{BlockNum: 5, TxNum: 3}) {
			t.Errorf("%s = %+v, %v; want it written at {5 3}", k, got, ok)
		}
	}
}

func TestReplicaDryRun(t *testing.T) {
	r := &testReplicas(1)[0]
	r.applyTx(txOf(1, bank(iel.FnCreateAccount, "rich", "10", "0")), 1, 0)
	before := r.State.Len()

	// Create-then-pay in one batch: the payment reads the overlay's accounts.
	create := txOf(2, bank(iel.FnCreateAccount, "new", "0", "0"))
	pay := txOf(3, bank(iel.FnSendPayment, "rich", "new", "10"))
	if !r.dryRun([]*chain.Transaction{create, pay}) {
		t.Error("create-then-pay in one batch failed: the overlay did not show its own writes")
	}
	// The payment moved everything, in the overlay: paying again overdraws.
	if r.dryRun([]*chain.Transaction{create, pay, txOf(4, bank(iel.FnSendPayment, "rich", "new", "1"))}) {
		t.Error("a batch overdrawing the overlay's balance passed")
	}
	// Nothing of either run reached the store, or the next run's overlay.
	if r.dryRun([]*chain.Transaction{pay}) {
		t.Error("a payment to an account only an earlier dry-run created passed")
	}
	if got, _ := r.State.Get(statestore.Key{Name: "rich", Part: statestore.Checking}); r.State.Len() != before || got.Value != "10" {
		t.Errorf("dry-runs wrote the base store: %d keys (was %d), rich = %q", r.State.Len(), before, got.Value)
	}
}

// mapOverlay is the overlay dryRun used to build per call, kept as the
// reference the inline one is compared against.
type mapOverlay struct {
	base   *statestore.KVStore
	writes map[statestore.Key]string
}

func (o *mapOverlay) Get(key statestore.Key) (string, bool) {
	if v, ok := o.writes[key]; ok {
		return v, true
	}
	v, ok := o.base.Get(key)
	return v.Value, ok
}

func (o *mapOverlay) Put(key statestore.Key, value string) { o.writes[key] = value }

// TestReplicaDryRunMatchesMapOverlay: for batches writing as many keys as the
// inline array holds, one more, one, and a Sawtooth batch's worth, the
// overlay answers and reads back as a map does — through overwrites on both
// sides of the spill, and a read that only the base store can serve.
func TestReplicaDryRunMatchesMapOverlay(t *testing.T) {
	for _, writes := range []int{1, overlayInline, overlayInline + 1, 200} {
		r := &testReplicas(1)[0]
		r.applyTx(txOf(1, set("base", "b"), set("k0", "old")), 1, 0)

		var ops []chain.Operation
		for i := 0; i < writes; i++ {
			ops = append(ops, set("k"+strconv.Itoa(i), "v"+strconv.Itoa(i)))
		}
		last := "k" + strconv.Itoa(writes-1)
		ops = append(ops, set("k0", "again"), set(last, "again-"+last), get("base"))
		for i := 0; i < writes; i++ {
			ops = append(ops, get("k"+strconv.Itoa(i)))
		}
		good := txOf(2, ops...)
		bad := txOf(3, append(ops[:len(ops):len(ops)], get("k"+strconv.Itoa(writes)))...)

		for _, tx := range []*chain.Transaction{good, bad} {
			ref := &mapOverlay{base: r.State, writes: map[statestore.Key]string{}}
			want := true
			for _, op := range tx.Ops {
				if iel.Execute(op, ref) != nil {
					want = false
					break
				}
			}
			if got := r.dryRun([]*chain.Transaction{tx}); got != want {
				t.Fatalf("%d writes: dryRun = %v, a map overlay says %v", writes, got, want)
			}
			if len(ref.writes) != writes {
				t.Fatalf("the batch wrote %d keys, the case wants %d", len(ref.writes), writes)
			}
			for k, v := range ref.writes {
				if got, ok := r.dry.Get(k); !ok || got != v {
					t.Fatalf("%d writes: overlay holds %q = %q, %v; a map overlay holds %q", writes, k, got, ok, v)
				}
			}
		}
		if got, _ := r.State.Get(kv("k0")); got.Value != "old" || r.State.Len() != 2 {
			t.Fatalf("%d writes: the dry-runs wrote the base store", writes)
		}
	}
}

// TestReplicaGateSerialisesExecution is why the adapters need no lock: a
// replica executes inside its gate, and the gate runs one unit of a node's
// commit work at a time — while the node is up, while it is down and
// buffering, and while a restart drains the backlog. The race detector
// fails this test if two units ever overlap. Replicas of one cluster run
// the same transactions at once and share only their key index, which has
// its own lock.
func TestReplicaGateSerialisesExecution(t *testing.T) {
	// A log whose appends cost something makes the work wait between
	// logging and applying: the crash can land there too.
	logged := &wal.Options{Latency: wal.LatencyModel{AppendPerRecord: time.Microsecond}}
	for name, w := range map[string]*wal.Options{"no log": nil, "log": logged} {
		t.Run(name, func(t *testing.T) {
			clk := clocktest.New(t)
			replicas := testReplicasOn(2, clk, w)
			txs := make([]*chain.Transaction, 40)
			for i := range txs {
				k := strconv.Itoa(i)
				txs[i] = txOf(uint64(i), bank(iel.FnCreateAccount, k, "5", "5"), bank(iel.FnSendPayment, k, k, "1"), set(k, k))
			}
			// Four committers per replica, each an event committing one
			// transaction per run, a microsecond apart; the log's append
			// latency holds their work mid-commit, so it interleaves.
			for i := range replicas {
				for g := 0; g < 4; g++ {
					r, n, recovering := &replicas[i], 0, false
					var ev *clock.Event
					ev = clock.NewEvent(clk, fmt.Sprintf("r%d/g%d", i, g), func() {
						var wait time.Duration
						switch {
						case recovering:
							wait = r.Gate.Resume()
						case g == 0 && n == 10:
							r.Gate.Crash()
						case g == 0 && n == 30:
							wait = r.Gate.Restart()
						}
						if recovering = wait > 0; recovering {
							ev.After(wait)
							return
						}
						tx, blk := txs[n], n
						CommitTo(&r.Gate, 1, func() {
							if r.dryRun([]*chain.Transaction{tx}) {
								r.applyTx(tx, uint64(blk), g)
							}
							_ = r.executeTx(tx, uint64(blk), g)
						}, runTask)
						if n++; n < len(txs) {
							ev.After(time.Microsecond)
						}
					})
					ev.Trigger()
				}
			}
			clk.Sleep(time.Second) // every committer is done, every commit applied
			for i := range replicas {
				if replicas[i].Gate.Down() {
					restartOut(clk, &replicas[i].Gate)
				}
				if got := replicas[i].State.Len(); got != 3*len(txs) {
					t.Errorf("replica %d holds %d keys, want %d", i, got, 3*len(txs))
				}
			}
		})
	}
}

// TestReplicaAllocs pins what the execution plane allocates per transaction:
// nothing, except the two balances a payment formats.
func TestReplicaAllocs(t *testing.T) {
	r := &testReplicas(1)[0]
	r.applyTx(txOf(0, bank(iel.FnCreateAccount, "a", "1000000", "0"), bank(iel.FnCreateAccount, "b", "1000000", "0"), set("k", "v")), 1, 0)
	for _, c := range []struct {
		name string
		op   chain.Operation
		max  float64
	}{
		{"DoNothing", chain.Operation{IEL: iel.DoNothingName, Function: iel.FnDoNothing}, 0},
		{"Set", set("k", "v2"), 0},
		{"Get", get("k"), 0},
		{"Balance", bank(iel.FnBalance, "a"), 0},
		{"SendPayment", bank(iel.FnSendPayment, "a", "b", "1"), 2},
	} {
		tx := txOf(1, c.op)
		one := []*chain.Transaction{tx}
		if n := testing.AllocsPerRun(100, func() {
			if err := r.executeTx(tx, 2, 0); err != nil {
				t.Fatal(err)
			}
		}); n > c.max {
			t.Errorf("executeTx(%s) allocates %v times, want at most %v", c.name, n, c.max)
		}
		if n := testing.AllocsPerRun(100, func() {
			if !r.dryRun(one) {
				t.Fatal("dry-run failed")
			}
		}); n > c.max {
			t.Errorf("dryRun(%s) allocates %v times, want at most %v", c.name, n, c.max)
		}
	}
}

func BenchmarkReplicaExecuteTx(b *testing.B) {
	r := &testReplicas(1)[0]
	r.applyTx(txOf(0, bank(iel.FnCreateAccount, "a", "1000000000000", "0"), bank(iel.FnCreateAccount, "b", "0", "0")), 1, 0)
	tx := txOf(1, bank(iel.FnSendPayment, "a", "b", "1"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.executeTx(tx, 2, i); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDryRun(b *testing.B, batch int) {
	r := &testReplicas(1)[0]
	txs := make([]*chain.Transaction, batch)
	for i := range txs {
		txs[i] = txOf(uint64(i), bank(iel.FnCreateAccount, strconv.Itoa(i), "1000", "1000"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.dryRun(txs) {
			b.Fatal("dry-run failed")
		}
	}
}

func BenchmarkDryRun1(b *testing.B)   { benchmarkDryRun(b, 1) }
func BenchmarkDryRun200(b *testing.B) { benchmarkDryRun(b, 200) }
