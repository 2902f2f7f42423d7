package network

import (
	"math"
	"math/rand"
	"slices"
	"time"
)

// The delivery scheduler is one heap of messages not yet due, a "ready"
// list for messages due at enqueue time (the only path a zero-latency
// fabric takes), and exactly one delivery event (Transport.drain), whose
// runs the clock serialises. Both hold items by value, so a steady-state
// send allocates nothing once they have grown.
//
// Invariants the scheduler maintains:
//
//   - The event delivers the due items in (readyNanos, seq) order, where
//     seq is the order of the sends. Together with the per-link ready-time
//     clamp in schedule this preserves the per-directed-link FIFO contract.
//     The ready list and the heap each yield that order, so the due items
//     are sorted only when the two interleave.
//   - wakeAt is the event's next run time: math.MinInt64 while a run is
//     draining or on its way (no trigger needed), math.MaxInt64 while it is
//     idle (any enqueue must trigger), otherwise the armed deadline (earlier
//     enqueues must trigger).

// item is one scheduled delivery, held by value in the ready list and the
// heap. It points at the registration it was sent to, not at the port, so
// once that registration is gone its handler is, even if the name
// registers again.
type item struct {
	payload    any
	from       *Port
	ep         *endpoint
	readyNanos int64
	seq        uint64
}

// before reports whether a is delivered ahead of b: the (readyNanos, seq)
// order.
func before(a, b *item) bool {
	return a.readyNanos < b.readyNanos || (a.readyNanos == b.readyNanos && a.seq < b.seq)
}

// queue is the transport's delivery schedule; see the invariants above.
type queue struct {
	seq    uint64
	ready  []item // due at enqueue time, in send order
	later  []item // not yet due: a binary min-heap by (readyNanos, seq)
	wakeAt int64  // see invariant above
}

// enqueue schedules one item and reports whether the delivery event must be
// triggered, because it would otherwise run only after the item's due time.
func (q *queue) enqueue(it item, nowN int64) (needWake bool) {
	q.seq++
	it.seq = q.seq
	if it.readyNanos <= nowN {
		q.ready = append(q.ready, it)
	} else {
		q.push(it)
	}
	needWake = it.readyNanos < q.wakeAt
	if needWake {
		q.wakeAt = math.MinInt64 // the run now on its way collects whatever follows
	}
	return needWake
}

// push adds it to the heap, sifting the hole it fills up from the bottom.
func (q *queue) push(it item) {
	h := append(q.later, item{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&it, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	q.later = h
}

// pop removes and returns the heap's first item, sifting the last item down
// from the root's hole.
func (q *queue) pop() item {
	h := q.later
	top, last := h[0], h[len(h)-1]
	h[len(h)-1] = item{} // drop the payload reference
	h = h[:len(h)-1]
	if n := len(h); n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(&h[r], &h[c]) {
				c = r
			}
			if !before(&h[c], &last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	q.later = h
	return top
}

// collect moves every heap item due at nowN onto the ready list, which
// then holds the due items in (readyNanos, seq) order, and returns the
// earliest pending due time (math.MaxInt64 when nothing is scheduled). It
// updates wakeAt in the same step, so enqueue's trigger decision always
// sees the event's decision to go idle.
func (q *queue) collect(nowN int64) int64 {
	r := len(q.ready)
	for len(q.later) > 0 && q.later[0].readyNanos <= nowN {
		q.ready = append(q.ready, q.pop())
	}
	// The ready items and the popped ones are each in order; the list
	// needs a sort only when a popped item belongs before the last ready one.
	if r > 0 && r < len(q.ready) && before(&q.ready[r], &q.ready[r-1]) {
		slices.SortFunc(q.ready, func(a, b item) int {
			switch {
			case before(&a, &b):
				return -1
			case before(&b, &a):
				return 1
			}
			return 0
		})
	}

	next := int64(math.MaxInt64)
	if len(q.ready) > 0 {
		q.wakeAt = math.MinInt64
		return next
	}
	if len(q.later) > 0 {
		next = q.later[0].readyNanos
	}
	q.wakeAt = next
	return next
}

// drain is the delivery event: collect due items and deliver them in
// (readyNanos, seq) order until none is due, then arm the next due time (an
// earlier enqueue triggers a run before it). The deadline is absolute, so it
// cannot drift when the clock moves between collecting and arming, and one
// already passed runs the event again at once. Handlers re-enter Send: what
// they send due at once joins the end of the ready list, after everything
// being delivered, and is delivered in the same pass.
func (t *Transport) drain() {
	q := &t.queue
	for {
		next := q.collect(t.nowNanos())
		if len(q.ready) == 0 {
			if next != math.MaxInt64 {
				t.deliver.At(t.t0.Add(time.Duration(next)))
			}
			return
		}
		for i := 0; i < len(q.ready); i++ {
			it := q.ready[i] // a copy: a handler's send may move the list
			it.ep.pending--
			// An endpoint unregistered since the send, even by a handler
			// earlier in this run, has no handler: its messages are dropped.
			if h := it.ep.handler; h != nil {
				h(Message{From: it.from.name, Payload: it.payload})
				t.delivered++
			}
		}
		clear(q.ready) // drop the payload references
		q.ready = q.ready[:0]
	}
}

// linkState is the per-directed-link scheduling state: the FIFO ready-time
// clamp, the degradation, and the link's own deterministic loss RNG. It
// lives in the source port's table, so it outlives the endpoints.
type linkState struct {
	lastReady int64
	deg       Degradation
	rng       *rand.Rand // made by the first lossy send
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
