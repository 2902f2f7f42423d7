package systems

import (
	"time"

	"github.com/coconut-bench/coconut/internal/crypto"
)

// DefaultEmittedRetention bounds the tombstone set that suppresses late
// duplicate reports after a transaction has emitted. Older tombstones are
// retired FIFO, so hub memory stays constant over arbitrarily long runs
// instead of growing with every transaction.
const DefaultEmittedRetention = 1 << 19

// Hub aggregates per-node commit notifications and fires the end-to-end
// finalization event once every node in the network has persisted a
// transaction. It also routes events to the submitting client's
// subscription, mirroring COCONUT's event-based collection (§3).
//
// Only the actor holding the clock's token touches it, so it takes no
// lock. Node identities are interned once into dense indices so
// per-transaction tracking is a bitset rather than a map of node-ID
// strings.
type Hub struct {
	nodes     int
	retention int

	subs    map[string]EventFunc
	nodeIdx map[string]*HubNode
	// txs holds every transaction the hub knows, by a pointer-free value the
	// collector never scans: a transaction still collecting node reports
	// maps to its slot (≥ 0) in slab, and a recently finalized one to
	// tombstone, so late duplicate reports do not re-open it. A report is one
	// probe of this map.
	txs map[crypto.Hash]int32
	// slab holds the pending transactions; a finalized one's slot goes on
	// free for the next transaction to reuse.
	slab []pendingTx
	free []int32
	// ring holds the tombstoned IDs oldest-first from ringHead. It grows to
	// retention entries; from then on each new tombstone overwrites, and
	// retires from txs, the oldest.
	ring     []crypto.Hash
	ringHead int
	emitted  int
}

// tombstone is the txs value of a finalized transaction.
const tombstone int32 = -1

// pendingTx tracks which nodes persisted one transaction, as a bitset over
// interned node indices: the first 64 inline, larger networks spill into
// more.
type pendingTx struct {
	event Event
	seen  uint64
	more  []uint64
	count int
}

func (p *pendingTx) mark(idx int) bool {
	word := &p.seen
	if idx >= 64 {
		for idx/64 > len(p.more) {
			p.more = append(p.more, 0)
		}
		word = &p.more[idx/64-1]
	}
	bit := uint64(1) << (idx % 64)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	p.count++
	return true
}

// HubOption customizes hub construction.
type HubOption func(*Hub)

// WithEmittedRetention sets how many finalized-transaction tombstones the
// hub retains for duplicate suppression before retiring the oldest.
func WithEmittedRetention(n int) HubOption {
	return func(h *Hub) {
		if n < 1 {
			n = 1
		}
		h.retention = n
	}
}

// NewHub creates a hub for a network of the given node count.
func NewHub(nodes int, opts ...HubOption) *Hub {
	h := &Hub{
		nodes:     nodes,
		retention: DefaultEmittedRetention,
		txs:       make(map[crypto.Hash]int32),
		subs:      make(map[string]EventFunc),
		nodeIdx:   make(map[string]*HubNode),
	}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// Subscribe registers fn as the listener for events whose Client matches.
func (h *Hub) Subscribe(client string, fn EventFunc) {
	h.subs[client] = fn
}

// Node interns a node identity and returns its commit handle. Drivers
// resolve the handle once at provisioning time so the per-commit hot path
// never touches the node-ID string map.
func (h *Hub) Node(id string) *HubNode {
	n, ok := h.nodeIdx[id]
	if !ok {
		n = &HubNode{hub: h, idx: len(h.nodeIdx), id: id}
		h.nodeIdx[id] = n
	}
	return n
}

// HubNode is one node's commit handle, bound to a dense node index.
type HubNode struct {
	hub *Hub
	idx int
	id  string
}

// ID returns the node identity the handle was interned for.
func (n *HubNode) ID() string { return n.id }

// Committed records that this node persisted the transaction described by
// ev. When all nodes have reported, the event fires to the client's
// subscription with FinalizedAt set to the last node's commit time.
// Duplicate reports from the same node are ignored.
func (n *HubNode) Committed(ev Event, at time.Time) {
	h := n.hub
	slot, ok := h.txs[ev.TxID]
	if !ok {
		slot = h.open(ev)
		h.txs[ev.TxID] = slot
	}
	if slot == tombstone {
		return
	}
	p := &h.slab[slot]
	if !p.mark(n.idx) || p.count < h.nodes {
		return
	}
	// Final node: emit exactly once. The transition completes before the
	// callback runs, so a report the callback causes sees the tombstone.
	out := p.event
	h.release(slot)
	h.retain(ev.TxID)
	h.emitted++
	if fn := h.subs[out.Client]; fn != nil {
		out.FinalizedAt = at
		fn(out)
	}
}

// open gives a newly reported transaction a slab slot, reusing a freed one
// when there is one.
func (h *Hub) open(ev Event) int32 {
	if k := len(h.free); k > 0 {
		slot := h.free[k-1]
		h.free = h.free[:k-1]
		h.slab[slot].event = ev
		return slot
	}
	h.slab = append(h.slab, pendingTx{event: ev})
	return int32(len(h.slab) - 1)
}

// release clears a finalized transaction's slot, keeping its spill words'
// capacity, and frees it: the slot pins nothing of the event.
func (h *Hub) release(slot int32) {
	p := &h.slab[slot]
	clear(p.more)
	*p = pendingTx{more: p.more[:0]}
	h.free = append(h.free, slot)
}

// retain tombstones a finalized transaction, retiring the oldest tombstone
// once the ring is at its bound.
func (h *Hub) retain(id crypto.Hash) {
	h.txs[id] = tombstone
	if len(h.ring) < h.retention {
		h.ring = append(h.ring, id)
		return
	}
	delete(h.txs, h.ring[h.ringHead])
	h.ring[h.ringHead] = id
	if h.ringHead++; h.ringHead == len(h.ring) {
		h.ringHead = 0
	}
}

// EmitDirect fires an event immediately, bypassing per-node tracking. Used
// for client-visible rejections that never reach the chain.
func (h *Hub) EmitDirect(ev Event, at time.Time) {
	if fn := h.subs[ev.Client]; fn != nil {
		ev.FinalizedAt = at
		fn(ev)
	}
}

// PendingCount reports transactions persisted on some but not all nodes.
func (h *Hub) PendingCount() int {
	return len(h.txs) - len(h.ring)
}

// EmittedCount reports fully finalized transactions over the hub's
// lifetime. Unlike the tombstone set, the counter is never pruned.
func (h *Hub) EmittedCount() int {
	return h.emitted
}

// TombstoneCount reports how many duplicate-suppression tombstones are
// currently retained; it is bounded by the retention regardless of run
// length.
func (h *Hub) TombstoneCount() int {
	return len(h.ring)
}
