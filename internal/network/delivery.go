package network

import (
	"cmp"
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The delivery scheduler is one heap of messages not yet due, a "ready"
// list for messages due at enqueue time (the only path a zero-latency
// fabric takes), and exactly one delivery event (Transport.drain), whose
// runs the clock serialises.
//
// Invariants the scheduler maintains:
//
//   - The event delivers each collected due batch sorted by (readyNanos,
//     seq), where seq is the order of the sends. Together with the per-link
//     ready-time clamp in schedule this preserves the per-directed-link
//     FIFO contract.
//   - wakeAt is the event's next run time: math.MinInt64 while a run is
//     draining or on its way (no trigger needed), math.MaxInt64 while it is
//     idle (any enqueue must trigger), otherwise the armed deadline (earlier
//     enqueues must trigger).

// item is one scheduled delivery. Items are pooled: drain clears and
// recycles them after invoking the handler, so steady-state sends do not
// allocate.
type item struct {
	msg        Message
	ep         *endpoint
	readyNanos int64
	seq        uint64
}

var itemPool = sync.Pool{New: func() any { return new(item) }}

// queue is the transport's delivery schedule; see the invariants above.
type queue struct {
	seq    uint64
	ready  []*item  // due at enqueue time
	later  itemHeap // not yet due, by readyNanos
	wakeAt int64    // see invariant above
}

// enqueue schedules one item and reports whether the delivery event must be
// triggered, because it would otherwise run only after the item's due time.
func (q *queue) enqueue(it *item, nowN int64) (needWake bool) {
	q.seq++
	it.seq = q.seq
	if it.readyNanos <= nowN {
		q.ready = append(q.ready, it)
	} else {
		heap.Push(&q.later, it)
	}
	needWake = it.readyNanos < q.wakeAt
	if needWake {
		q.wakeAt = math.MinInt64 // the run now on its way collects whatever follows
	}
	return needWake
}

// collect appends every item due at nowN to batch and returns it together
// with the earliest pending due time (math.MaxInt64 when nothing is
// scheduled). It updates wakeAt in the same step, so enqueue's trigger
// decision always sees the event's decision to go idle.
func (q *queue) collect(nowN int64, batch []*item) ([]*item, int64) {
	batch = append(batch, q.ready...)
	clear(q.ready)
	q.ready = q.ready[:0]
	for len(q.later) > 0 && q.later[0].readyNanos <= nowN {
		batch = append(batch, heap.Pop(&q.later).(*item))
	}

	next := int64(math.MaxInt64)
	if len(batch) > 0 {
		q.wakeAt = math.MinInt64
		return batch, next
	}
	if len(q.later) > 0 {
		next = q.later[0].readyNanos
	}
	q.wakeAt = next
	return batch, next
}

// drain is the delivery event: collect due items and deliver them in
// (readyNanos, seq) order until none is due, then arm the next due time (an
// earlier enqueue triggers a run before it). The deadline is absolute, so it
// cannot drift when the clock moves between collecting and arming, and one
// already passed runs the event again at once. Handlers re-enter Send.
func (t *Transport) drain() {
	for {
		var next int64
		t.batch, next = t.queue.collect(t.nowNanos(), t.batch[:0])
		if len(t.batch) == 0 {
			if next != math.MaxInt64 {
				t.deliver.At(t.t0.Add(time.Duration(next)))
			}
			return
		}
		slices.SortFunc(t.batch, func(a, b *item) int {
			if c := cmp.Compare(a.readyNanos, b.readyNanos); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		for _, it := range t.batch {
			it.ep.pending--
			// An endpoint unregistered since the send, even by a handler
			// earlier in this batch, has no handler: its messages are dropped.
			if h := it.ep.handler; h != nil {
				h(it.msg)
				t.delivered++
			}
			*it = item{}
			itemPool.Put(it)
		}
	}
}

// itemHeap orders the items not yet due by ready time; drain puts the items
// of one ready time in send order.
type itemHeap []*item

func (h itemHeap) Len() int           { return len(h) }
func (h itemHeap) Less(i, j int) bool { return h[i].readyNanos < h[j].readyNanos }
func (h itemHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)        { *h = append(*h, x.(*item)) }
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// linkState is the per-directed-link scheduling state: the FIFO ready-time
// clamp and the link's own deterministic loss RNG. A link is created by its
// first message and outlives the endpoint: a node that re-registers after a
// crash resumes its links' clamp and loss stream.
type linkState struct {
	lastReady int64
	rng       *rand.Rand
	// hops numbers the link's messages for deterministic trace sampling;
	// it only advances while a tracer is attached.
	hops uint64
}

// FNV-1a, shared by trace sampling and link seeding.
const (
	fnvOffset64 = uint64(14695981039346656037)
	fnvPrime64  = uint64(1099511628211)
)

// fnvAdd folds a string into a running FNV-1a state.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// linkSeed derives a stable per-link RNG seed from the base seed and the
// directed link's names, keeping loss draws deterministic per link no
// matter how sends on other links interleave.
func linkSeed(base int64, from, to string) int64 {
	h := fnvAdd(fnvOffset64, from)
	h ^= 0xff // separator so ("ab","c") and ("a","bc") differ
	h *= fnvPrime64
	h = fnvAdd(h, to)
	return base ^ int64(h)
}
