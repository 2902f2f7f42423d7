package bitshares

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
)

type collector struct {
	mu     sync.Mutex
	events []systems.Event
}

func (c *collector) add(e systems.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func (c *collector) ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		n += e.OpCount
	}
	return n
}

func (c *collector) wait(t *testing.T, want int, timeout time.Duration) []systems.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.events)
		c.mu.Unlock()
		if n >= want {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]systems.Event, len(c.events))
			copy(out, c.events)
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("received %d events, want %d", c.len(), want)
	return nil
}

func newNetwork(t *testing.T, cfg Config) (*Network, *collector) {
	t.Helper()
	if cfg.BlockInterval == 0 {
		cfg.BlockInterval = 10 * time.Millisecond
	}
	n := New(cfg)
	col := &collector{}
	n.Subscribe("client-1", col.add)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, col
}

func TestNameAndTopology(t *testing.T) {
	n := New(Config{})
	if n.Name() != systems.NameBitShares || n.NodeCount() != 4 {
		t.Fatalf("name=%q nodes=%d", n.Name(), n.NodeCount())
	}
}

func TestSingleOpCommits(t *testing.T) {
	n, col := newNetwork(t, Config{})
	tx := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	events := col.wait(t, 1, 10*time.Second)
	if events[0].OpCount != 1 {
		t.Fatalf("OpCount = %d", events[0].OpCount)
	}
	// All 4 nodes (including the observer) must hold the write.
	for i := 0; i < 4; i++ {
		if _, ok := n.WorldState(i).Get("k"); !ok {
			t.Fatalf("node %d missing key", i)
		}
	}
}

func TestMultiOperationTransaction(t *testing.T) {
	n, col := newNetwork(t, Config{})
	ops := make([]chain.Operation, 50)
	for i := range ops {
		ops[i] = chain.Operation{
			IEL:      iel.KeyValueName,
			Function: iel.FnSet,
			Args:     []string{fmt.Sprintf("multi-%d", i), "v"},
		}
	}
	tx := chain.NewTransaction("client-1", 0, ops...)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)
	if got := col.ops(); got != 50 {
		t.Fatalf("op count = %d, want 50 (each op counts as one tx, §4.5)", got)
	}
}

func TestAtomicTransactionDiscardOnFailingOp(t *testing.T) {
	n, col := newNetwork(t, Config{})
	// Second op reads a missing key: whole tx must vanish.
	tx := chain.NewTransaction("client-1", 0,
		chain.Operation{IEL: iel.KeyValueName, Function: iel.FnSet, Args: []string{"atomic-k", "v"}},
		chain.Operation{IEL: iel.KeyValueName, Function: iel.FnGet, Args: []string{"never-written"}},
	)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	control := chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnSet, "ctl", "v")
	if err := n.Submit(0, control); err != nil {
		t.Fatal(err)
	}
	events := col.wait(t, 1, 10*time.Second)
	for _, e := range events {
		if e.TxID == tx.ID {
			t.Fatal("failing atomic transaction produced an event")
		}
	}
	if _, ok := n.WorldState(0).Get("atomic-k"); ok {
		t.Fatal("partial write from discarded transaction leaked")
	}
}

func TestInteractingTransactionsExcluded(t *testing.T) {
	n, col := newNetwork(t, Config{BlockInterval: 50 * time.Millisecond})
	// Set up two accounts, wait for commit.
	a := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnCreateAccount, "acc-a", "100", "0")
	b := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnCreateAccount, "acc-b", "100", "0")
	c := chain.NewSingleOp("client-1", 2, iel.BankingAppName, iel.FnCreateAccount, "acc-c", "100", "0")
	for _, tx := range []*chain.Transaction{a, b, c} {
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 3, 10*time.Second)

	// Overlapping payments a->b and b->c land in the same forming block:
	// the second interacts with the first (shares acc-b) and is excluded.
	p1 := chain.NewSingleOp("client-1", 3, iel.BankingAppName, iel.FnSendPayment, "acc-a", "acc-b", "10")
	p2 := chain.NewSingleOp("client-1", 4, iel.BankingAppName, iel.FnSendPayment, "acc-b", "acc-c", "10")
	if err := n.Submit(0, p1); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(0, p2); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 4, 10*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && n.ExcludedCount() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if n.ExcludedCount() == 0 {
		t.Fatal("interacting transactions were not excluded")
	}
}

func TestNonWitnessNodeCanSubmit(t *testing.T) {
	n, col := newNetwork(t, Config{})
	// Node 3 is the observer (witnesses are nodes 0-2).
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(3, tx); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)
}

func TestLedgersConverge(t *testing.T) {
	n, col := newNetwork(t, Config{})
	for i := 0; i < 9; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("key-%d", i), "v")
		if err := n.Submit(i, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 9, 10*time.Second)
	for _, nd := range n.nodes {
		if err := nd.Ledger.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitAfterStop(t *testing.T) {
	n := New(Config{BlockInterval: 10 * time.Millisecond})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	tx := chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}

func TestConflictWindowSpansBlocks(t *testing.T) {
	// The sliding window must carry write-sets across filter invocations
	// (i.e. across blocks) — the scaling-preserving behaviour the
	// experiments package relies on (DESIGN.md §4a).
	n := New(Config{ConflictWindowTxs: 64})
	p1 := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnSendPayment, "w-a", "w-b", "1")
	included, excluded := n.conflictFilter([]any{p1})
	if len(included) != 1 || len(excluded) != 0 {
		t.Fatalf("first block: included=%d excluded=%d", len(included), len(excluded))
	}
	// A later block: the interacting payment must still be excluded.
	p2 := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnSendPayment, "w-b", "w-c", "1")
	included, excluded = n.conflictFilter([]any{p2})
	if len(included) != 0 || len(excluded) != 1 {
		t.Fatalf("cross-block conflict not excluded: included=%d excluded=%d", len(included), len(excluded))
	}
	// Push the window past capacity with disjoint writes; the stale entry
	// expires and a payment touching w-a becomes admissible again.
	for i := 0; i < 70; i++ {
		tx := chain.NewSingleOp("client-1", uint64(100+i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("filler-%d", i), "v")
		n.conflictFilter([]any{tx})
	}
	p3 := chain.NewSingleOp("client-1", 2, iel.BankingAppName, iel.FnSendPayment, "w-a", "w-d", "1")
	included, excluded = n.conflictFilter([]any{p3})
	if len(included) != 1 || len(excluded) != 0 {
		t.Fatalf("expired window entry still excludes: included=%d excluded=%d", len(included), len(excluded))
	}
}

func TestReadsNeverConflict(t *testing.T) {
	// Get/Balance write nothing, so they can never be excluded — the
	// WrittenKeys-based rule (paper: Get works at full rate, §5.3).
	n, col := newNetwork(t, Config{ConflictWindowTxs: 64})
	set := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "rk", "v")
	if err := n.Submit(0, set); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)
	for i := 0; i < 5; i++ {
		get := chain.NewSingleOp("client-1", uint64(10+i), iel.KeyValueName, iel.FnGet, "rk")
		if err := n.Submit(0, get); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 6, 10*time.Second)
	if n.ExcludedCount() != 0 {
		t.Fatalf("reads were excluded (%d); only writes interact", n.ExcludedCount())
	}
}

// referenceConflictFilter is the exclusion rule stated directly — one key
// set per windowed transaction, membership by probing each — kept as the
// oracle for the refcounted window.
type referenceConflictFilter struct {
	window     int
	windowKeys []map[string]bool
}

func (r *referenceConflictFilter) filter(items []any) (included, excluded []any) {
	inWindow := func(key string) bool {
		for _, set := range r.windowKeys {
			if set[key] {
				return true
			}
		}
		return false
	}
	blockTouched := make(map[string]bool)
	for _, it := range items {
		tx := it.(*chain.Transaction)
		conflict := false
		keys := make(map[string]bool)
		for _, op := range tx.Ops {
			for _, k := range iel.WrittenKeys(op) {
				keys[k] = true
				if blockTouched[k] || inWindow(k) {
					conflict = true
				}
			}
		}
		if conflict {
			excluded = append(excluded, it)
			continue
		}
		for k := range keys {
			blockTouched[k] = true
		}
		if r.window > 0 {
			r.windowKeys = append(r.windowKeys, keys)
			if len(r.windowKeys) > r.window {
				r.windowKeys = r.windowKeys[1:]
			}
		}
		included = append(included, it)
	}
	return included, excluded
}

// TestConflictFilterMatchesReference drives the refcounted window and the
// reference with the same random blocks — multi-op transactions, repeated
// keys inside one transaction, windows smaller and larger than a block —
// and requires identical included/excluded sequences, counters and queue
// marks.
func TestConflictFilterMatchesReference(t *testing.T) {
	for _, window := range []int{0, 1, 3, 16, 200} {
		rng := rand.New(rand.NewSource(int64(42 + window)))
		n := New(Config{ConflictWindowTxs: window})
		ref := &referenceConflictFilter{window: window}
		var wantExcluded, wantExcludedOps uint64
		var seq uint64
		for block := 0; block < 120; block++ {
			items := make([]any, rng.Intn(12))
			for i := range items {
				ops := make([]chain.Operation, 1+rng.Intn(3))
				for j := range ops {
					from := fmt.Sprintf("acct-%d", rng.Intn(40))
					to := fmt.Sprintf("acct-%d", rng.Intn(40))
					ops[j] = chain.Operation{IEL: iel.BankingAppName, Function: iel.FnSendPayment, Args: []string{from, to, "1"}}
				}
				items[i] = chain.NewTransaction("client", seq, ops...)
				seq++
			}
			gotIn, gotEx := n.conflictFilter(items)
			wantIn, wantEx := ref.filter(items)
			if !slices.Equal(gotIn, wantIn) || !slices.Equal(gotEx, wantEx) {
				t.Fatalf("window %d block %d: included %d/%d excluded %d/%d differ from reference",
					window, block, len(gotIn), len(wantIn), len(gotEx), len(wantEx))
			}
			wantExcluded += uint64(len(wantEx))
			for _, it := range wantEx {
				wantExcludedOps += uint64(it.(*chain.Transaction).OpCount())
			}
			for _, it := range gotIn {
				if it.(*chain.Transaction).Stages.At(chain.StageQueue) == 0 {
					t.Fatalf("window %d block %d: included transaction lacks its queue mark", window, block)
				}
			}
			for _, it := range gotEx {
				if it.(*chain.Transaction).Stages.At(chain.StageQueue) != 0 {
					t.Fatalf("window %d block %d: excluded transaction carries a queue mark", window, block)
				}
			}
		}
		if n.excluded != wantExcluded || n.excludedOps != wantExcludedOps {
			t.Fatalf("window %d: counters excluded=%d ops=%d, reference %d/%d",
				window, n.excluded, n.excludedOps, wantExcluded, wantExcludedOps)
		}
		if wantExcluded == 0 {
			t.Fatalf("window %d: the blocks provoked no exclusion; the comparison proves nothing", window)
		}
		if live := len(n.windowKeys) - n.windowHead; live > window {
			t.Fatalf("window %d holds %d transactions", window, live)
		}
	}
}
