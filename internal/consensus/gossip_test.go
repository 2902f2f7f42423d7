package consensus

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/crypto"
)

// TestGossipIndexAdmitsEachNodeOnce: each node admits an ID once, one node's
// admission hides the ID from no other, and nodes past 63 (the spill words,
// at n = 70 and 200) behave as the inline ones do: an ID that only spilled
// nodes admitted is still fresh to every inline node.
func TestGossipIndexAdmitsEachNodeOnce(t *testing.T) {
	for _, n := range []int{1, 4, 64, 70, 200} {
		g := NewGossipIndex()
		ids := []crypto.Hash{crypto.SumString(fmt.Sprintf("a-%d", n)), crypto.SumString(fmt.Sprintf("b-%d", n))}
		for node := n - 1; node >= 0; node-- { // the highest node first grows the spill at once
			for _, id := range ids {
				if g.Has(id, node) {
					t.Fatalf("n=%d: node %d holds %x before admitting it", n, node, id[:4])
				}
				if !g.Admit(id, node) {
					t.Fatalf("n=%d: node %d's first admit of %x was refused: another node's hid it", n, node, id[:4])
				}
				if g.Admit(id, node) {
					t.Fatalf("n=%d: node %d admitted %x twice", n, node, id[:4])
				}
			}
			for other := 0; other < n; other++ {
				if got, want := g.Has(ids[0], other), other >= node; got != want {
					t.Fatalf("n=%d after node %d: Has(node %d) = %v, want %v", n, node, other, got, want)
				}
			}
		}
	}
}

// TestGossipIndexConcurrentAdmits: node events on one clock share one
// index, interleaved between their waits; two events race for each node,
// spilled ones included, and each node still admits each ID exactly once.
func TestGossipIndexConcurrentAdmits(t *testing.T) {
	const ids = 200
	nodes := []int{0, 1, 63, 64, 70}
	clk := clocktest.New(t)
	g := NewGossipIndex()
	admitted := make([]int, len(nodes))
	names := make([]string, 2*len(nodes))
	for i := range names {
		names[i] = fmt.Sprintf("admitter-%d", i)
	}
	next := make([]int, len(names)) // each admitter's next ID
	clocktest.Steps(t, clk, time.Minute, "admitters", names, func(i int) (time.Duration, bool) {
		id := next[i]
		if id == ids {
			return 0, true
		}
		if g.Admit(crypto.SumString(fmt.Sprint(id)), nodes[i%len(nodes)]) {
			admitted[i%len(nodes)]++
		}
		next[i]++
		return time.Duration(1+i) * time.Microsecond, false
	})
	for i, node := range nodes {
		if got := admitted[i]; got != ids {
			t.Errorf("node %d admitted %d of %d IDs", node, got, ids)
		}
	}
}

// TestGossipIndexWarmEntryDoesNotAllocate: once an ID has an entry, further
// nodes below 64 admit it without allocating.
func TestGossipIndexWarmEntryDoesNotAllocate(t *testing.T) {
	g := NewGossipIndex()
	id := crypto.SumString("warm")
	g.Admit(id, 0)
	node := 0
	if n := testing.AllocsPerRun(200, func() {
		g.Admit(id, node%64)
		node++
	}); n != 0 {
		t.Fatalf("admitting into a warm entry allocates %v times, want 0", n)
	}
}
