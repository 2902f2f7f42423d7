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

// The delivery scheduler is a hashed timing wheel (calendar queue): a wheel
// of wheelSlots buckets of wheelGranularity each, an overflow heap for
// messages scheduled beyond the wheel horizon, a "ready" list for messages
// due at enqueue time, and exactly one delivery event (Transport.drain),
// whose runs the clock serialises. All of it is guarded by Transport.mu.
//
// Invariants the scheduler maintains:
//
//   - Wheel-resident items always have ticks in [cursor, cursor+wheelSlots),
//     so each bucket holds items of exactly one tick and buckets scanned in
//     tick order yield items in non-decreasing due time.
//   - The event delivers each collected due batch sorted by (readyNanos,
//     seq), where seq is the order of the sends. Together with the per-link
//     ready-time clamp in sendLocked this preserves the per-directed-link
//     FIFO contract.
//   - wakeAt is the event's next run time: math.MinInt64 while a run is
//     draining or on its way (no trigger needed), math.MaxInt64 while it is
//     idle (any enqueue must trigger), otherwise the armed deadline (earlier
//     enqueues must trigger).
const (
	// wheelGranularity is one wheel tick. Messages are never delivered
	// early: an armed timer targets the exact earliest readyNanos, the tick
	// only buckets messages.
	wheelGranularity = 100 * time.Microsecond
	granNanos        = int64(wheelGranularity)
	// wheelSlots is the bucket count; granularity*slots ≈ 410ms of horizon.
	// Delays beyond the horizon go to the overflow heap.
	wheelSlots = 4096
	wheelMask  = wheelSlots - 1
)

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

type wheel struct {
	seq    uint64
	ready  []*item   // due at enqueue time, drained ahead of the wheel
	slots  [][]*item // the hashed wheel, allocated by the first item that is not due at once
	cursor int64     // next tick to inspect
	far    farHeap   // beyond-horizon overflow
	wheelN int       // items resident in slots
	wakeAt int64     // see invariant above
}

// enqueue schedules one item and reports whether the delivery event must be
// triggered (after unlocking), because it would otherwise run only after the
// item's due time.
func (w *wheel) enqueue(it *item, nowN int64) (needWake bool) {
	w.seq++
	it.seq = w.seq
	if it.readyNanos <= nowN {
		w.ready = append(w.ready, it)
	} else {
		tick := it.readyNanos / granNanos
		if tick < w.cursor {
			// The sender read the clock before the drain that moved the
			// cursor past this tick; park the item in the cursor bucket (the
			// next one scanned) instead of a bucket that would not be visited
			// again for a full rotation.
			tick = w.cursor
		}
		if tick >= w.cursor+wheelSlots {
			heap.Push(&w.far, it)
		} else {
			if w.slots == nil {
				w.slots = make([][]*item, wheelSlots)
			}
			// Buckets stay sorted by (readyNanos, seq) — seq only grows, so the
			// item goes after its equals — and collect takes a due prefix
			// instead of filtering a dense bucket once per item in it.
			idx := int(tick & wheelMask)
			at, _ := slices.BinarySearchFunc(w.slots[idx], it.readyNanos+1, func(o *item, ready int64) int {
				return cmp.Compare(o.readyNanos, ready)
			})
			w.slots[idx] = slices.Insert(w.slots[idx], at, it)
			w.wheelN++
		}
	}
	needWake = it.readyNanos < w.wakeAt
	if needWake {
		w.wakeAt = math.MinInt64 // the run now on its way collects whatever follows
	}
	return needWake
}

// collect appends every item due at nowN to batch and returns it together
// with the earliest pending due time (math.MaxInt64 when nothing is
// scheduled). It updates wakeAt in the same lock section, so enqueue's
// trigger decision can never race the event's decision to go idle.
func (w *wheel) collect(nowN int64, batch []*item) ([]*item, int64) {
	nowTick := nowN / granNanos
	batch = append(batch, w.ready...)
	clear(w.ready)
	w.ready = w.ready[:0]

	if w.wheelN > 0 {
		from := w.cursor
		if nowTick-from >= wheelSlots {
			// The event last ran more than a full rotation ago: one pass over
			// [nowTick-wheelSlots+1, nowTick] visits every bucket once.
			from = nowTick - wheelSlots + 1
		}
		for tk := from; tk <= nowTick && w.wheelN > 0; tk++ {
			idx := int(tk & wheelMask)
			slot := w.slots[idx]
			due := 0
			for due < len(slot) && slot[due].readyNanos <= nowN {
				due++
			}
			if due == 0 {
				continue
			}
			batch = append(batch, slot[:due]...)
			w.wheelN -= due
			kept := copy(slot, slot[due:]) // keep the bucket's backing array
			clear(slot[kept:])
			w.slots[idx] = slot[:kept]
		}
	}
	w.cursor = nowTick

	for len(w.far) > 0 && w.far[0].readyNanos <= nowN {
		batch = append(batch, heap.Pop(&w.far).(*item))
	}

	next := int64(math.MaxInt64)
	if len(batch) > 0 {
		w.wakeAt = math.MinInt64
		return batch, next
	}
	if len(w.far) > 0 {
		next = w.far[0].readyNanos
	}
	if w.wheelN > 0 {
		// The first occupied bucket from the cursor holds the earliest
		// wheel items (buckets are single-tick; see invariant), its first
		// item the earliest of them.
		for off := int64(0); off < wheelSlots; off++ {
			if slot := w.slots[int((nowTick+off)&wheelMask)]; len(slot) > 0 {
				next = min(next, slot[0].readyNanos)
				break
			}
		}
	}
	w.wakeAt = next
	return batch, next
}

// drain is the delivery event: collect due items and deliver them in
// (readyNanos, seq) order until none is due, then arm the next due time (an
// earlier enqueue triggers a run before it). The deadline is absolute, so it
// cannot drift when the clock moves between collecting and arming, and one
// already passed runs the event again at once. The lock is held throughout
// except while a handler runs: handlers re-enter Send.
func (t *Transport) drain() {
	t.mu.Lock()
	for {
		var next int64
		t.batch, next = t.wheel.collect(t.nowNanos(), t.batch[:0])
		if len(t.batch) == 0 {
			t.mu.Unlock()
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
				t.mu.Unlock()
				h(it.msg)
				t.mu.Lock()
				t.delivered++
			}
			*it = item{}
			itemPool.Put(it)
		}
	}
}

// farHeap is the beyond-horizon overflow, ordered by (readyNanos, seq).
type farHeap []*item

func (h farHeap) Len() int { return len(h) }
func (h farHeap) Less(i, j int) bool {
	if h[i].readyNanos != h[j].readyNanos {
		return h[i].readyNanos < h[j].readyNanos
	}
	return h[i].seq < h[j].seq
}
func (h farHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *farHeap) Push(x any)   { *h = append(*h, x.(*item)) }
func (h *farHeap) Pop() any {
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
