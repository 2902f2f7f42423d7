package consensus

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/mempool"
)

// gossipItem is a payload with pointer identity, as transactions have.
type gossipItem struct{ num uint64 }

// refPools is the reference GossipPool is checked against: the per-node
// pools the drivers kept before the pool was shared, each a mempool.Pool
// with a first-admission set, and a block drop that filters the whole pool.
type refPools struct {
	nodes []refNode
}

type refNode struct {
	pool               *mempool.Pool[*gossipItem]
	admitted           map[uint64]bool
	admits, rejections uint64
}

func newRefPools(nodes, capacity int) *refPools {
	r := &refPools{nodes: make([]refNode, nodes)}
	for i := range r.nodes {
		r.nodes[i] = refNode{pool: mempool.NewBounded[*gossipItem](capacity), admitted: make(map[uint64]bool)}
	}
	return r
}

// add queues it at node, counting the outcome as a node's pool does.
func (r *refPools) add(node int, it *gossipItem) error {
	n := &r.nodes[node]
	if err := n.pool.Add(it); err != nil {
		n.rejections++
		return err
	}
	n.admits++
	return nil
}

// admit is a gossip copy arriving: marked, then queued or dropped.
func (r *refPools) admit(node int, it *gossipItem) bool {
	n := &r.nodes[node]
	if n.admitted[it.num] {
		return false
	}
	n.admitted[it.num] = true
	_ = r.add(node, it)
	return true
}

// offer is a client's submission: marked only once queued.
func (r *refPools) offer(node int, it *gossipItem) (bool, error) {
	if r.nodes[node].admitted[it.num] {
		return false, nil
	}
	if err := r.add(node, it); err != nil {
		return false, err
	}
	r.nodes[node].admitted[it.num] = true
	return true, nil
}

// drop removes a block's items from node's pool in one pass over the pool.
func (r *refPools) drop(node int, block []uint64) {
	p := r.nodes[node].pool
	for _, it := range p.Take(0) {
		if !slices.Contains(block, it.num) {
			_ = p.Add(it) // it fitted before, it fits again
		}
	}
}

// queuedAnywhere reports whether some node of r holds num queued.
func (r *refPools) queuedAnywhere(num uint64) bool {
	for i := range r.nodes {
		p := r.nodes[i].pool
		items := p.Take(0)
		found := false
		for _, it := range items {
			found = found || it.num == num
			_ = p.Add(it)
		}
		if found {
			return true
		}
	}
	return false
}

// gossipHarness drives a GossipPool and its reference through the same
// operations and fails at the first difference.
type gossipHarness struct {
	t     *testing.T
	name  string
	pool  *GossipPool[*gossipItem]
	ref   *refPools
	items map[uint64]*gossipItem
}

func newGossipHarness(t *testing.T, name string, nodes, capacity int) *gossipHarness {
	return &gossipHarness{t: t, name: name, pool: NewGossipPool[*gossipItem](nodes, capacity),
		ref: newRefPools(nodes, capacity), items: make(map[uint64]*gossipItem)}
}

func (h *gossipHarness) item(num uint64) *gossipItem {
	it, ok := h.items[num]
	if !ok {
		it = &gossipItem{num: num}
		h.items[num] = it
	}
	return it
}

func (h *gossipHarness) admit(node int, num uint64) {
	h.t.Helper()
	it := h.item(num)
	if got, want := h.pool.Admit(node, num, it), h.ref.admit(node, it); got != want {
		h.t.Fatalf("%s: Admit(node %d, %d) = %v, the per-node pools say %v", h.name, node, num, got, want)
	}
	h.checkLens()
}

func (h *gossipHarness) offer(node int, num uint64) error {
	h.t.Helper()
	it := h.item(num)
	got, gotErr := h.pool.Offer(node, num, it)
	want, wantErr := h.ref.offer(node, it)
	if got != want || gotErr != wantErr {
		h.t.Fatalf("%s: Offer(node %d, %d) = %v, %v; the per-node pools say %v, %v", h.name, node, num, got, gotErr, want, wantErr)
	}
	if has := hasAdmitted(h.pool, node, num); has != h.ref.nodes[node].admitted[num] {
		h.t.Fatalf("%s: after Offer(node %d, %d) Has = %v, the per-node pools say %v", h.name, node, num, has, !has)
	}
	h.checkLens()
	return gotErr
}

func (h *gossipHarness) take(node, max int) []*gossipItem {
	h.t.Helper()
	got, nums := h.pool.TakeNumbered(node, max)
	want := h.ref.nodes[node].pool.Take(max)
	if !slices.Equal(got, want) {
		h.t.Fatalf("%s: Take(node %d, %d) = %s, the per-node pools take %s", h.name, node, max, itemNums(got), itemNums(want))
	}
	if fmt.Sprint(nums) != itemNums(got) {
		h.t.Fatalf("%s: TakeNumbered(node %d) numbers %v, its items are %s", h.name, node, nums, itemNums(got))
	}
	h.checkLens()
	return got
}

func (h *gossipHarness) requeue(node int, items []*gossipItem) {
	h.t.Helper()
	for _, it := range items {
		if gotErr, wantErr := h.pool.Requeue(node, it.num, it), h.ref.add(node, it); gotErr != wantErr {
			h.t.Fatalf("%s: Requeue(node %d, %d) = %v, the per-node pools say %v", h.name, node, it.num, gotErr, wantErr)
		}
	}
	h.checkLens()
}

func (h *gossipHarness) drop(node int, block []uint64) {
	h.t.Helper()
	for _, num := range block {
		h.pool.Drop(node, num)
	}
	h.ref.drop(node, block)
	h.checkLens()
}

func (h *gossipHarness) checkLens() {
	h.t.Helper()
	for node := range h.ref.nodes {
		if got, want := h.pool.Len(node), h.ref.nodes[node].pool.Len(); got != want {
			h.t.Fatalf("%s: node %d holds %d, the per-node pool %d", h.name, node, got, want)
		}
	}
}

// checkEnd compares the admission counters, that payloads are held exactly
// while some node has them queued, and what each node still holds.
func (h *gossipHarness) checkEnd() {
	h.t.Helper()
	for node := range h.ref.nodes {
		ref := &h.ref.nodes[node]
		if a, r := h.pool.Stats(node); a != ref.admits || r != ref.rejections {
			h.t.Fatalf("%s: node %d counts %d admitted and %d rejected, the per-node pool %d and %d", h.name, node, a, r, ref.admits, ref.rejections)
		}
	}
	for num, it := range h.items {
		pg := h.pool.page(num)
		held := pg != nil && pg.slots[num&gossipPageMask].item == it
		if want := h.ref.queuedAnywhere(num); held != want {
			h.t.Fatalf("%s: number %d: payload held %v, queued at some node %v", h.name, num, held, want)
		}
	}
	for node := range h.ref.nodes {
		h.take(node, 0)
	}
}

// hasAdmitted reports whether node of p has admitted num.
func hasAdmitted[T any](p *GossipPool[T], node int, num uint64) bool {
	pg := p.page(num)
	if pg == nil {
		return false
	}
	admitted, _, bit := p.words(pg, int(num&gossipPageMask), node)
	return *admitted&bit != 0
}

func itemNums(items []*gossipItem) string {
	nums := make([]uint64, len(items))
	for i, it := range items {
		nums[i] = it.num
	}
	return fmt.Sprint(nums)
}

// TestGossipPoolMatchesPerNodePools runs fixed-seed random schedules of
// admission, gossip, take, requeue, bounded rejection and block drop over
// networks of 1–70 nodes (past the 64 inline ones) against per-node pools
// with a first-admission set and an O(pool) block drop: every Take, Len,
// admission result and counter agrees, and a payload is held exactly while
// some node has it queued.
func TestGossipPoolMatchesPerNodePools(t *testing.T) {
	t.Run("late gossip after drop", func(t *testing.T) {
		h := newGossipHarness(t, "late gossip", 3, 0)
		h.offer(0, 1)
		h.admit(1, 1)
		block := h.take(0, 0)
		h.drop(0, []uint64{1})
		h.drop(1, []uint64{1})
		h.drop(2, []uint64{1}) // node 2 has not received number 1 yet
		h.admit(2, 1)          // it arrives after the block: admitted and queued
		if h.pool.Len(2) != 1 || len(block) != 1 {
			t.Fatalf("node 2 holds %d after the late copy, want it queued", h.pool.Len(2))
		}
		h.admit(2, 1) // a second copy is still a duplicate
		h.checkEnd()
	})
	t.Run("rejected then re-sent", func(t *testing.T) {
		h := newGossipHarness(t, "re-sent", 2, 2)
		h.offer(0, 1)
		h.offer(0, 2)
		if err := h.offer(0, 3); !errors.Is(err, mempool.ErrQueueFull) {
			t.Fatalf("offer to a full queue: %v, want ErrQueueFull", err)
		}
		if hasAdmitted(h.pool, 0, 3) {
			t.Fatal("a rejected offer was marked admitted")
		}
		h.take(0, 1)
		if err := h.offer(0, 3); err != nil {
			t.Fatalf("re-send after room freed: %v", err)
		}
		h.offer(0, 3) // admitted now: a repeat is left alone
		h.admit(1, 3)
		h.admit(1, 1)
		h.admit(1, 2) // gossip into a full queue: dropped, but marked
		h.take(1, 0)
		h.admit(1, 2) // not re-admitted
		h.checkEnd()
	})

	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 500; trial++ {
		nodes := 1 + rng.Intn(70)
		if trial%10 == 0 {
			nodes = 65 + rng.Intn(6) // spill words in every tenth schedule
		}
		capacity := 0
		if trial%3 == 0 {
			capacity = 1 + rng.Intn(8)
		}
		h := newGossipHarness(t, fmt.Sprintf("trial %d (%d nodes, capacity %d)", trial, nodes, capacity), nodes, capacity)
		var (
			next     uint64
			known    []uint64
			blocks   [][]uint64
			rejected [][2]uint64                    // (node, num) a full queue turned away
			failed   = make([][]*gossipItem, nodes) // per node, taken items a failed proposal must put back
		)
		node := func() int { return rng.Intn(nodes) }
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(20); {
			case op < 5: // a client submits a fresh number, or re-sends a rejected one
				n, num := node(), next+1
				if len(rejected) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(rejected))
					n, num = int(rejected[i][0]), rejected[i][1]
					rejected = slices.Delete(rejected, i, i+1)
				} else {
					next++
					known = append(known, num)
				}
				if err := h.offer(n, num); err != nil {
					rejected = append(rejected, [2]uint64{uint64(n), num})
				}
			case op < 11: // gossip of a known number, duplicates included
				if len(known) > 0 {
					h.admit(node(), known[rng.Intn(len(known))])
				}
			case op < 14: // a proposer takes a block; a third of proposals fail
				n := node()
				if len(failed[n]) > 0 {
					continue // the failed proposal is put back first
				}
				taken := h.take(n, rng.Intn(5))
				if len(taken) == 0 {
					continue
				}
				if rng.Intn(3) == 0 {
					failed[n] = taken
					continue
				}
				block := make([]uint64, len(taken))
				for i, it := range taken {
					block[i] = it.num
				}
				blocks = append(blocks, block)
			case op < 15: // a failed proposal goes back at the tail
				if n := node(); len(failed[n]) > 0 {
					h.requeue(n, failed[n])
					failed[n] = nil
				}
			default: // a node drops a decided block, or one with numbers it never saw
				if len(blocks) > 0 && rng.Intn(4) != 0 {
					h.drop(node(), blocks[rng.Intn(len(blocks))])
				} else {
					h.drop(node(), []uint64{next + 1, uint64(rng.Intn(int(next) + 2))})
				}
			}
		}
		for n, items := range failed {
			if len(items) > 0 {
				h.requeue(n, items)
			}
		}
		h.checkEnd()
	}
}

// TestGossipPoolAdmitsEachNodeOnce: each node admits a number once, one
// node's admission hides the number from no other, and nodes past 63 (the
// spill words, at n = 70 and 200) behave as the inline ones do: a number
// that only spilled nodes admitted is still fresh to every inline node.
func TestGossipPoolAdmitsEachNodeOnce(t *testing.T) {
	for _, n := range []int{1, 4, 64, 70, 200} {
		p := NewGossipPool[string](n, 0)
		nums := []uint64{7, gossipPageSize + 3} // two pages
		for node := n - 1; node >= 0; node-- {  // the highest node first
			for _, num := range nums {
				if hasAdmitted(p, node, num) {
					t.Fatalf("n=%d: node %d holds %d before admitting it", n, node, num)
				}
				if !p.Admit(node, num, "x") {
					t.Fatalf("n=%d: node %d's first admit of %d was refused: another node's hid it", n, node, num)
				}
				if p.Admit(node, num, "x") {
					t.Fatalf("n=%d: node %d admitted %d twice", n, node, num)
				}
			}
			for other := 0; other < n; other++ {
				if got, want := hasAdmitted(p, other, nums[0]), other >= node; got != want {
					t.Fatalf("n=%d after node %d: Has(node %d) = %v, want %v", n, node, other, got, want)
				}
			}
			if l := p.Len(node); l != len(nums) {
				t.Fatalf("n=%d: node %d holds %d, want %d", n, node, l, len(nums))
			}
		}
	}
}

// TestGossipPoolConcurrentAdmits: node events on one clock share one pool,
// interleaved between their waits; two events race for each node, spilled
// ones included, and each node still admits each number exactly once.
func TestGossipPoolConcurrentAdmits(t *testing.T) {
	const nums = 200
	nodes := []int{0, 1, 63, 64, 70}
	clk := clocktest.New(t)
	p := NewGossipPool[int](71, 0)
	admitted := make([]int, len(nodes))
	names := make([]string, 2*len(nodes))
	for i := range names {
		names[i] = fmt.Sprintf("admitter-%d", i)
	}
	next := make([]int, len(names)) // each admitter's next number
	clocktest.Steps(t, clk, time.Minute, "admitters", names, func(i int) (time.Duration, bool) {
		num := next[i]
		if num == nums {
			return 0, true
		}
		if p.Admit(nodes[i%len(nodes)], uint64(num+1), num) {
			admitted[i%len(nodes)]++
		}
		next[i]++
		return time.Duration(1+i) * time.Microsecond, false
	})
	for i, node := range nodes {
		if got := admitted[i]; got != nums || p.Len(node) != nums {
			t.Errorf("node %d admitted %d of %d numbers and holds %d", node, got, nums, p.Len(node))
		}
	}
}

// TestGossipPoolWarmPathsDoNotAllocate: once a number's page exists and the
// node's FIFO has room, a first admission, a duplicate and a block drop
// allocate nothing, on inline and spilled nodes alike.
func TestGossipPoolWarmPathsDoNotAllocate(t *testing.T) {
	p := NewGossipPool[*gossipItem](70, 0)
	it := &gossipItem{}
	for _, node := range []int{0, 69} {
		// Grow node's FIFO, then empty it: its capacity stays.
		for num := uint64(gossipPageSize); num < 2*gossipPageSize; num++ {
			p.Admit(node, num, it)
		}
		for num := uint64(gossipPageSize); num < 2*gossipPageSize; num++ {
			p.Drop(node, num)
		}
		num := uint64(0)
		if n := testing.AllocsPerRun(200, func() {
			num++ // page 0's numbers: the first run allocates the page
			p.Admit(node, num, it)
			p.Admit(node, num, it)
			p.Drop(node, num)
		}); n != 0 {
			t.Fatalf("node %d: an admission, a duplicate and a drop allocate %v times, want 0", node, n)
		}
	}
}

// TestGossipPoolReleasesPayloads: an item's payload stays while some node
// holds it queued and is released once none does, whether a Take or a
// block drop removed the last copy; a later gossip copy stores it again.
func TestGossipPoolReleasesPayloads(t *testing.T) {
	p := NewGossipPool[*gossipItem](3, 0)
	it := &gossipItem{num: 5}
	held := func() bool { return p.pages[0].slots[5].item != nil }
	p.Admit(0, 5, it)
	p.Admit(1, 5, it)
	p.Take(0, 0)
	if !held() {
		t.Fatal("the payload went while node 1 still holds it")
	}
	p.Drop(1, 5)
	if held() {
		t.Fatal("the payload is still held after its last queued copy left")
	}
	p.Admit(2, 5, it)
	if !held() || p.Take(2, 0)[0] != it {
		t.Fatal("a late gossip copy did not store the payload again")
	}
}

// TestGossipPoolCompactsDeadEntries: drops leave dead FIFO entries that Take
// skips, and the FIFO is compacted once they outnumber the live ones, so it
// never holds more than twice the live count plus one.
func TestGossipPoolCompactsDeadEntries(t *testing.T) {
	p := NewGossipPool[int](1, 0)
	for num := uint64(1); num <= 100; num++ {
		p.Admit(0, num, int(num))
	}
	for num := uint64(1); num <= 100; num += 2 {
		p.Drop(0, num)
		if q := &p.queues[0]; len(q.fifo)-q.head > 2*q.live+1 {
			t.Fatalf("after dropping %d the FIFO holds %d entries for %d live", num, len(q.fifo)-q.head, q.live)
		}
	}
	got := p.Take(0, 0)
	if len(got) != 50 || got[0] != 2 || got[49] != 100 {
		t.Fatalf("took %v, want the 50 even numbers in order", got)
	}
}

// BenchmarkGossipPoolDrop times a decided 100-item block on a 4-node
// network: every node drops the block, the oldest 100 items it holds. A
// drop clears the block's queued bits and never scans the pool, so ns/op
// stays flat from 1k to 100k queued items, with no allocation. The pool is
// refilled, off the clock, once half of it is dropped.
func BenchmarkGossipPoolDrop(b *testing.B) {
	const nodes, block = 4, 100
	for _, depth := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			items := make([]*gossipItem, depth)
			for i := range items {
				items[i] = &gossipItem{num: uint64(i + 1)}
			}
			var p *GossipPool[*gossipItem]
			rounds := depth / 2 / block // blocks dropped between refills
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % rounds
				if r == 0 {
					b.StopTimer()
					p = NewGossipPool[*gossipItem](nodes, 0)
					for _, it := range items {
						for node := 0; node < nodes; node++ {
							p.Admit(node, it.num, it)
						}
					}
					b.StartTimer()
				}
				for node := 0; node < nodes; node++ {
					for _, it := range items[r*block : (r+1)*block] {
						p.Drop(node, it.num)
					}
				}
			}
		})
	}
}
