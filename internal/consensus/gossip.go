package consensus

import "github.com/coconut-bench/coconut/internal/mempool"

// GossipPool is the transaction pool of one gossip network, kept once for
// all of its nodes instead of once per node. Every node of Quorum, Sawtooth
// and BitShares receives each gossiped item and drops it again when a
// block that includes it is decided; the pool stores each item once, under
// its gossip number, and keeps per node only what differs between nodes:
// which numbers the node admitted and which it still holds queued. A node
// is its dense index in the network (its position in the configured list).
//
// Numbers are small and dense (a run numbers its transactions from 1), so
// the table is a directory of fixed pages indexed by number: a number costs
// its slot once and growing the table copies no slot. Each number has two
// membership words, admitted and queued; nodes 0–63 share the inline word
// of each, and nodes from 64 up spill to further words that a network of
// up to 64 nodes never allocates.
//
// A node's queue is a FIFO of numbers with an exact live count. Take pops
// live numbers in admission order. Drop, the removal a decided block makes,
// only clears the node's queued bit, so it costs O(block) rather than
// O(pool); Take skips the dead FIFO entries it leaves, and the FIFO is
// compacted once they outnumber the live ones. An item's payload is
// released once no node holds it queued. Only the clock's event loop
// touches a pool, so it takes no lock.
type GossipPool[T any] struct {
	pages    []*gossipPage[T] // number g lives at pages[g>>gossipPageShift]
	spill    int              // membership words per node set beyond the inline one
	capacity int              // per-node queue bound; 0 = unbounded
	queues   []gossipQueue    // one per node
}

const (
	gossipPageShift = 8
	gossipPageSize  = 1 << gossipPageShift
	gossipPageMask  = gossipPageSize - 1
)

// gossipSlot is one number's entry: its payload, zero while no node holds
// it queued, and the inline membership words.
type gossipSlot[T any] struct {
	item     T
	admitted uint64 // bit i: node i < 64 admitted the number
	queued   uint64 // bit i: node i < 64 holds it queued
}

type gossipPage[T any] struct {
	slots [gossipPageSize]gossipSlot[T]
	// spill holds the words of nodes 64 and up, nil in smaller networks:
	// with w = GossipPool.spill, slot s's admitted words are
	// spill[2ws : 2ws+w] and its queued words spill[2ws+w : 2ws+2w].
	spill []uint64
}

// gossipQueue is one node's FIFO of queued numbers. Entries before head
// are consumed; after it, live entries are those whose queued bit is set.
type gossipQueue struct {
	fifo []uint64
	head int
	live int

	admitted uint64 // lifetime count of items queued, requeues included
	rejected uint64 // lifetime count of items a full queue turned away
}

// NewGossipPool returns an empty pool for a network of nodes nodes whose
// queues each hold at most capacity items (0: unbounded).
func NewGossipPool[T any](nodes, capacity int) *GossipPool[T] {
	return &GossipPool[T]{
		spill:    max(nodes-1, 0) / 64,
		capacity: capacity,
		queues:   make([]gossipQueue, nodes),
	}
}

// Admit is a gossiped copy of item, number num, reaching node. The first
// copy marks num admitted at node and queues it; when node's queue is full
// the item is dropped and counted rejected, but stays marked, since a
// gossip copy is not re-sent. Admit reports whether this was node's first
// copy.
func (p *GossipPool[T]) Admit(node int, num uint64, item T) bool {
	pg, s := p.slot(num)
	admitted, queued, bit := p.words(pg, s, node)
	if *admitted&bit != 0 {
		return false
	}
	*admitted |= bit
	_ = p.enqueue(pg, s, queued, bit, node, num, item)
	return true
}

// Offer is item, number num, entering the network at node, as a client's
// submission does. A number node already admitted is left alone (false,
// nil). A full queue rejects the item with mempool.ErrQueueFull and leaves
// it unadmitted, so the client may re-send it. Otherwise the item is
// admitted and queued (true, nil).
func (p *GossipPool[T]) Offer(node int, num uint64, item T) (bool, error) {
	pg, s := p.slot(num)
	admitted, queued, bit := p.words(pg, s, node)
	if *admitted&bit != 0 {
		return false, nil
	}
	if err := p.enqueue(pg, s, queued, bit, node, num, item); err != nil {
		return false, err
	}
	*admitted |= bit
	return true, nil
}

// Requeue puts back at the tail of node's queue an item that Take handed
// out and that could not be proposed. Like a first admission it counts as
// admitted, or as rejected when the queue is full. Only a taken item may
// go back, once: Take removed its FIFO entry, and a number still listed
// would be listed twice.
func (p *GossipPool[T]) Requeue(node int, num uint64, item T) error {
	pg, s := p.slot(num)
	_, queued, bit := p.words(pg, s, node)
	return p.enqueue(pg, s, queued, bit, node, num, item)
}

// Take removes and returns up to max of node's queued items in admission
// order; max <= 0 takes them all.
func (p *GossipPool[T]) Take(node, max int) []T {
	items, _ := p.take(node, max, false)
	return items
}

// TakeNumbered is Take that also returns the items' numbers, in the same
// order.
func (p *GossipPool[T]) TakeNumbered(node, max int) ([]T, []uint64) {
	return p.take(node, max, true)
}

func (p *GossipPool[T]) take(node, max int, numbered bool) ([]T, []uint64) {
	q := &p.queues[node]
	n := q.live
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil, nil
	}
	items := make([]T, 0, n)
	var nums []uint64
	if numbered {
		nums = make([]uint64, 0, n)
	}
	for len(items) < n {
		num := q.fifo[q.head]
		q.head++
		pg := p.pages[num>>gossipPageShift]
		s := int(num & gossipPageMask)
		_, queued, bit := p.words(pg, s, node)
		if *queued&bit == 0 {
			continue // dropped by a block while queued
		}
		*queued &^= bit
		items = append(items, pg.slots[s].item)
		if numbered {
			nums = append(nums, num)
		}
		p.release(pg, s)
	}
	q.live -= n
	if q.head == len(q.fifo) {
		q.fifo, q.head = q.fifo[:0], 0
	}
	return items, nums
}

// Drop removes num from node's queue, as a decided block that includes it
// does; a number node does not hold queued is left alone, so a copy that
// reaches node after the block is still admitted and queued there.
func (p *GossipPool[T]) Drop(node int, num uint64) {
	pg := p.page(num)
	if pg == nil {
		return
	}
	s := int(num & gossipPageMask)
	_, queued, bit := p.words(pg, s, node)
	if *queued&bit == 0 {
		return
	}
	*queued &^= bit
	p.release(pg, s)
	q := &p.queues[node]
	q.live--
	if dead := len(q.fifo) - q.head - q.live; dead > q.live {
		p.compact(node)
	}
}

// Len returns how many items node holds queued.
func (p *GossipPool[T]) Len(node int) int { return p.queues[node].live }

// Stats reports node's lifetime admission counters: items queued (requeues
// included) and items its full queue rejected.
func (p *GossipPool[T]) Stats(node int) (admitted, rejected uint64) {
	q := &p.queues[node]
	return q.admitted, q.rejected
}

// enqueue queues item num at node unless its queue is full; queued and bit
// are node's queued word and bit of slot s of pg.
func (p *GossipPool[T]) enqueue(pg *gossipPage[T], s int, queued *uint64, bit uint64, node int, num uint64, item T) error {
	q := &p.queues[node]
	if p.capacity > 0 && q.live >= p.capacity {
		q.rejected++
		return mempool.ErrQueueFull
	}
	*queued |= bit
	pg.slots[s].item = item
	if len(q.fifo) == cap(q.fifo) && q.head > 0 && 2*q.head >= len(q.fifo) {
		// Half the FIFO is consumed: move the rest down instead of growing.
		q.fifo = q.fifo[:copy(q.fifo, q.fifo[q.head:])]
		q.head = 0
	}
	q.fifo = append(q.fifo, num)
	q.live++
	q.admitted++
	return nil
}

// compact removes the dead entries from node's FIFO, keeping the order of
// the live ones.
func (p *GossipPool[T]) compact(node int) {
	q := &p.queues[node]
	kept := q.fifo[:0]
	for _, num := range q.fifo[q.head:] {
		pg := p.pages[num>>gossipPageShift]
		if _, queued, bit := p.words(pg, int(num&gossipPageMask), node); *queued&bit != 0 {
			kept = append(kept, num)
		}
	}
	q.fifo, q.head = kept, 0
}

// release lets slot s's payload go once no node holds it queued.
func (p *GossipPool[T]) release(pg *gossipPage[T], s int) {
	if pg.slots[s].queued != 0 {
		return
	}
	for _, w := range pg.spill[2*p.spill*s+p.spill : 2*p.spill*(s+1)] {
		if w != 0 {
			return
		}
	}
	var zero T
	pg.slots[s].item = zero
}

// page returns num's page, or nil if no number of it was ever stored.
func (p *GossipPool[T]) page(num uint64) *gossipPage[T] {
	if i := num >> gossipPageShift; i < uint64(len(p.pages)) {
		return p.pages[i]
	}
	return nil
}

// slot returns num's page, allocating it on first use, and num's slot in it.
func (p *GossipPool[T]) slot(num uint64) (*gossipPage[T], int) {
	i := num >> gossipPageShift
	for uint64(len(p.pages)) <= i {
		p.pages = append(p.pages, nil)
	}
	pg := p.pages[i]
	if pg == nil {
		pg = &gossipPage[T]{}
		if p.spill > 0 {
			pg.spill = make([]uint64, 2*p.spill*gossipPageSize)
		}
		p.pages[i] = pg
	}
	return pg, int(num & gossipPageMask)
}

// words returns node's admitted and queued words for slot s of pg, and
// node's bit in them.
func (p *GossipPool[T]) words(pg *gossipPage[T], s, node int) (admitted, queued *uint64, bit uint64) {
	bit = uint64(1) << (node % 64)
	if node < 64 {
		sl := &pg.slots[s]
		return &sl.admitted, &sl.queued, bit
	}
	w := 2*p.spill*s + node/64 - 1
	return &pg.spill[w], &pg.spill[w+p.spill], bit
}
