package bitshares

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// testNetwork builds BitShares on a test env from its calibration at the
// paper's default parameters with the exclusion window set to window
// transactions.
func testNetwork(t *testing.T, window int) *Network {
	t.Helper()
	env := systemstest.Env(t)
	cfg := calibrate(env, systems.Params{})
	cfg.conflictWindow = window
	return build(env, cfg)
}

func TestInteractingTransactionsExcluded(t *testing.T) {
	// Exclusion within the forming block only: a window would also hold the
	// account creations, which write the keys the payments touch.
	n := testNetwork(t, 0)
	col := systemstest.Collect(n.env, n, "client-1")
	systemstest.Start(t, n)
	// Set up two accounts, wait for commit.
	a := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnCreateAccount, "acc-a", "100", "0")
	b := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnCreateAccount, "acc-b", "100", "0")
	c := chain.NewSingleOp("client-1", 2, iel.BankingAppName, iel.FnCreateAccount, "acc-c", "100", "0")
	for _, tx := range []*chain.Transaction{a, b, c} {
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 3, 10*time.Second)

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
	col.Wait(t, 4, 10*time.Second)
	deadline := n.env.Clock.Now().Add(2 * time.Second)
	for n.env.Clock.Now().Before(deadline) && n.ExcludedCount() == 0 {
		n.env.Clock.Sleep(5 * time.Millisecond)
	}
	if n.ExcludedCount() == 0 {
		t.Fatal("interacting transactions were not excluded")
	}
}

func TestConflictWindowSpansBlocks(t *testing.T) {
	// The sliding window must carry write-sets across filter invocations
	// (i.e. across blocks) — the scaling-preserving behaviour the
	// experiments package relies on (DESIGN.md §4a).
	n := testNetwork(t, 64)
	p1 := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnSendPayment, "w-a", "w-b", "1")
	included, excluded := n.conflictFilter([]*chain.Transaction{p1})
	if len(included) != 1 || len(excluded) != 0 {
		t.Fatalf("first block: included=%d excluded=%d", len(included), len(excluded))
	}
	// A later block: the interacting payment must still be excluded.
	p2 := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnSendPayment, "w-b", "w-c", "1")
	included, excluded = n.conflictFilter([]*chain.Transaction{p2})
	if len(included) != 0 || len(excluded) != 1 {
		t.Fatalf("cross-block conflict not excluded: included=%d excluded=%d", len(included), len(excluded))
	}
	// Push the window past capacity with disjoint writes; the stale entry
	// expires and a payment touching w-a becomes admissible again.
	for i := 0; i < 70; i++ {
		tx := chain.NewSingleOp("client-1", uint64(100+i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("filler-%d", i), "v")
		n.conflictFilter([]*chain.Transaction{tx})
	}
	p3 := chain.NewSingleOp("client-1", 2, iel.BankingAppName, iel.FnSendPayment, "w-a", "w-d", "1")
	included, excluded = n.conflictFilter([]*chain.Transaction{p3})
	if len(included) != 1 || len(excluded) != 0 {
		t.Fatalf("expired window entry still excludes: included=%d excluded=%d", len(included), len(excluded))
	}
}

// referenceConflictFilter is the exclusion rule stated directly — one key
// set per windowed transaction, membership by probing each — kept as the
// oracle for the refcounted window.
type referenceConflictFilter struct {
	window     int
	windowKeys []map[statestore.Key]bool
}

func (r *referenceConflictFilter) filter(items []*chain.Transaction) (included, excluded []*chain.Transaction) {
	inWindow := func(key statestore.Key) bool {
		for _, set := range r.windowKeys {
			if set[key] {
				return true
			}
		}
		return false
	}
	blockTouched := make(map[statestore.Key]bool)
	for _, tx := range items {
		conflict := false
		keys := make(map[statestore.Key]bool)
		for _, op := range tx.Ops {
			written, n := iel.WrittenKeys(op)
			for _, k := range written[:n] {
				keys[k] = true
				if blockTouched[k] || inWindow(k) {
					conflict = true
				}
			}
		}
		if conflict {
			excluded = append(excluded, tx)
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
		included = append(included, tx)
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
		n := testNetwork(t, window)
		ref := &referenceConflictFilter{window: window}
		var wantExcluded, wantExcludedOps uint64
		var seq uint64
		for block := 0; block < 120; block++ {
			items := make([]*chain.Transaction, rng.Intn(12))
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
			for _, tx := range wantEx {
				wantExcludedOps += uint64(tx.OpCount())
			}
			for _, tx := range gotIn {
				if tx.Stages.At(chain.StageQueue) == 0 {
					t.Fatalf("window %d block %d: included transaction lacks its queue mark", window, block)
				}
			}
			for _, tx := range gotEx {
				if tx.Stages.At(chain.StageQueue) != 0 {
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
