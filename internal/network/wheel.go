package network

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

// The delivery scheduler is a sharded hashed timing wheel (calendar queue).
// Every endpoint is pinned to one shard by a hash of its name; a shard owns
// a wheel of wheelSlots buckets of wheelGranularity each, an overflow heap
// for messages scheduled beyond the wheel horizon, a "ready" list for
// messages due at enqueue time, and exactly one delivery event (clock.Event
// "net/shard-N"), whose runs the clock serialises.
//
// Invariants the scheduler maintains:
//
//   - Wheel-resident items always have ticks in [cursor, cursor+wheelSlots),
//     so each bucket holds items of exactly one tick and buckets scanned in
//     tick order yield items in non-decreasing due time.
//   - A shard's event delivers each collected due batch sorted by
//     (readyNanos, seq), where seq is assigned under the shard lock at
//     enqueue. Together with the per-link ready-time clamp in sendTo this
//     preserves the per-directed-link FIFO contract.
//   - wakeAt (guarded by the shard lock) is the event's next run time:
//     math.MinInt64 while a run is draining or on its way (no trigger
//     needed), math.MaxInt64 while it is idle (any enqueue must trigger),
//     otherwise the armed deadline (earlier enqueues must trigger).
const (
	// wheelGranularity is one wheel tick. Messages are never delivered
	// early: an armed timer targets the exact earliest readyNanos, the tick
	// only buckets messages.
	wheelGranularity = 100 * time.Microsecond
	granNanos        = int64(wheelGranularity)
	// wheelSlots is the bucket count; granularity*slots ≈ 410ms of horizon.
	// Delays beyond the horizon go to the shard's overflow heap.
	wheelSlots = 4096
	wheelMask  = wheelSlots - 1
)

// item is one scheduled delivery. Items are pooled: deliverBatch clears and
// recycles them after invoking the handler, so steady-state sends do not
// allocate.
type item struct {
	msg        Message
	ep         *endpoint
	readyNanos int64
	seq        uint64
	tick       int64
}

var itemPool = sync.Pool{New: func() any { return new(item) }}

// shardStats are the per-shard counters; padding keeps each shard's hot
// counters on their own cache line so senders of different shards never
// false-share.
type shardStats struct {
	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	lost      atomic.Uint64
	_         [4]uint64
}

type shard struct {
	stats shardStats

	mu     sync.Mutex
	links  map[linkKey]*linkState // directed links into this shard's endpoints
	seq    uint64
	ready  []*item   // due at enqueue time, drained ahead of the wheel
	slots  [][]*item // the hashed wheel, allocated by the first item that is not due at once
	cursor int64     // next tick to inspect
	far    farHeap   // beyond-horizon overflow
	wheelN int       // items resident in slots
	wakeAt int64     // see invariant above

	drain *clock.Event
	batch []*item // drain's scratch, reused across runs
}

func (t *Transport) newShard(i int) *shard {
	sh := &shard{wakeAt: math.MaxInt64, links: make(map[linkKey]*linkState)}
	sh.drain = clock.NewEvent(t.clk, "net/shard-"+strconv.Itoa(i), func() { t.drain(sh) })
	return sh
}

// enqueue schedules one item and triggers the delivery event if it would
// otherwise run only after the item's due time.
func (sh *shard) enqueue(it *item, nowN int64) {
	sh.mu.Lock()
	sh.seq++
	it.seq = sh.seq
	if it.readyNanos <= nowN {
		sh.ready = append(sh.ready, it)
	} else {
		tick := it.readyNanos / granNanos
		if tick < sh.cursor {
			// The sender's now-read went stale and the worker's cursor
			// already passed this tick; park the item in the cursor bucket
			// (the next one scanned) instead of a bucket that would not be
			// visited again for a full rotation.
			tick = sh.cursor
		}
		it.tick = tick
		if tick >= sh.cursor+wheelSlots {
			heap.Push(&sh.far, it)
		} else {
			if sh.slots == nil {
				sh.slots = make([][]*item, wheelSlots)
			}
			idx := int(tick & wheelMask)
			sh.slots[idx] = append(sh.slots[idx], it)
			sh.wheelN++
		}
	}
	needWake := it.readyNanos < sh.wakeAt
	if needWake {
		sh.wakeAt = math.MinInt64 // the run now on its way collects whatever follows
	}
	sh.mu.Unlock()
	if needWake {
		sh.drain.Trigger()
	}
}

// collect appends every item due at nowN to batch and returns it together
// with the earliest pending due time (math.MaxInt64 when the shard is
// drained). It updates wakeAt under the shard lock so enqueue's trigger
// decision can never race the event's decision to go idle.
func (sh *shard) collect(nowN int64, batch []*item) ([]*item, int64) {
	sh.mu.Lock()
	nowTick := nowN / granNanos
	batch = append(batch, sh.ready...)
	for i := range sh.ready {
		sh.ready[i] = nil
	}
	sh.ready = sh.ready[:0]

	if sh.wheelN > 0 {
		from := sh.cursor
		if nowTick-from >= wheelSlots {
			// The event last ran more than a full rotation ago: one pass over
			// [nowTick-wheelSlots+1, nowTick] visits every bucket once.
			from = nowTick - wheelSlots + 1
		}
		for tk := from; tk <= nowTick && sh.wheelN > 0; tk++ {
			idx := int(tk & wheelMask)
			slot := sh.slots[idx]
			if len(slot) == 0 {
				continue
			}
			kept := slot[:0]
			for _, it := range slot {
				if it.readyNanos <= nowN {
					batch = append(batch, it)
					sh.wheelN--
				} else {
					kept = append(kept, it)
				}
			}
			for i := len(kept); i < len(slot); i++ {
				slot[i] = nil
			}
			sh.slots[idx] = kept
		}
	}
	sh.cursor = nowTick

	for len(sh.far) > 0 && sh.far[0].readyNanos <= nowN {
		batch = append(batch, heap.Pop(&sh.far).(*item))
	}

	next := int64(math.MaxInt64)
	if len(batch) > 0 {
		sh.wakeAt = math.MinInt64
	} else {
		if len(sh.far) > 0 {
			next = sh.far[0].readyNanos
		}
		if sh.wheelN > 0 {
			// The first occupied bucket from the cursor holds the earliest
			// wheel items (buckets are single-tick; see invariant).
			for off := int64(0); off < wheelSlots; off++ {
				slot := sh.slots[int((nowTick+off)&wheelMask)]
				if len(slot) == 0 {
					continue
				}
				for _, it := range slot {
					if it.readyNanos < next {
						next = it.readyNanos
					}
				}
				break
			}
		}
		sh.wakeAt = next
	}
	sh.mu.Unlock()
	return batch, next
}

// drain is a shard's delivery event: collect due items and deliver them in
// timestamp order until none is due, then arm the next due time (an earlier
// enqueue triggers a run before it). The deadline is absolute, so it cannot
// drift when the clock moves between collecting and arming, and one already
// passed runs the event again at once.
func (t *Transport) drain(sh *shard) {
	for {
		var next int64
		sh.batch, next = sh.collect(t.nowNanos(), sh.batch[:0])
		if len(sh.batch) == 0 {
			if next != math.MaxInt64 {
				sh.drain.At(t.t0.Add(time.Duration(next)))
			}
			return
		}
		t.deliverBatch(sh, sh.batch)
	}
}

// deliverBatch hands a due batch to the endpoint handlers in (readyNanos,
// seq) order and recycles the items.
func (t *Transport) deliverBatch(sh *shard, batch []*item) {
	slices.SortFunc(batch, func(a, b *item) int {
		if a.readyNanos != b.readyNanos {
			if a.readyNanos < b.readyNanos {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	for _, it := range batch {
		ep := it.ep
		ep.pending.Add(-1)
		if !ep.closed.Load() {
			if h := ep.handler.Load(); h != nil {
				(*h)(it.msg)
			}
			sh.stats.delivered.Add(1)
		}
		*it = item{}
		itemPool.Put(it)
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
// first message, in the table of the destination's shard and guarded by the
// shard lock, and outlives the endpoint: a node that re-registers after a
// crash resumes its links' clamp and loss stream.
type linkState struct {
	lastReady int64
	rng       *rand.Rand
	// hops numbers the link's messages for deterministic trace sampling;
	// it only advances while a tracer is attached.
	hops uint64
}

// FNV-1a, shared by shard pinning and link seeding so the two hash paths
// cannot drift apart.
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
