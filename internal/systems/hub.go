package systems

import (
	"sync"
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
// One lock guards all of it: a run executes one goroutine at a time, so
// there is nothing for more lock domains to separate. Node identities are interned once into dense
// indices so per-transaction tracking is a bitset rather than a map of
// node-ID strings.
type Hub struct {
	nodes     int
	retention int

	mu      sync.Mutex
	subs    map[string]EventFunc
	nodeIdx map[string]*HubNode
	// txs holds every transaction the hub knows: the ones still collecting
	// node reports and, marked done, the recently finalized ones, whose entry
	// stays behind as its own tombstone so late duplicate reports do not
	// re-open them. A report is one probe of this map.
	txs map[crypto.Hash]*pendingTx
	// The retention queue threads the done entries oldest-first through
	// pendingTx.next; at the retention bound each new tombstone retires the
	// oldest from txs.
	doneHead, doneTail *pendingTx
	doneN              int
	emitted            int
}

// pendingTx tracks which nodes persisted one transaction, as a bitset over
// interned node indices: the first 64 inline, larger networks spill into
// more.
type pendingTx struct {
	event Event
	seen  uint64
	more  []uint64
	count int
	// done marks an emitted transaction; all that is kept of its event is
	// the TxID the queue retires it by, and next links it to the tombstone
	// finalized after it.
	done bool
	next *pendingTx
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
		txs:       make(map[crypto.Hash]*pendingTx),
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
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs[client] = fn
}

// Node interns a node identity and returns its commit handle. Drivers
// resolve the handle once at provisioning time so the per-commit hot path
// never touches the node-ID string map.
func (h *Hub) Node(id string) *HubNode {
	h.mu.Lock()
	defer h.mu.Unlock()
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
	h.mu.Lock()
	p, ok := h.txs[ev.TxID]
	if !ok {
		p = &pendingTx{event: ev}
		h.txs[ev.TxID] = p
	}
	if p.done || !p.mark(n.idx) || p.count < h.nodes {
		h.mu.Unlock()
		return
	}
	// Final node: emit exactly once. The transition happens under the lock,
	// the callback runs outside every lock.
	out := p.event
	p.done = true
	p.event = Event{TxID: ev.TxID} // the entry is a tombstone now: pin nothing
	p.more = nil
	h.retain(p)
	h.emitted++
	fn := h.subs[out.Client]
	h.mu.Unlock()

	if fn != nil {
		out.FinalizedAt = at
		fn(out)
	}
}

// retain appends a done transaction to the retention queue, retiring the
// oldest tombstone once the queue is at its bound. Caller holds h.mu.
func (h *Hub) retain(p *pendingTx) {
	if h.doneTail == nil {
		h.doneHead = p
	} else {
		h.doneTail.next = p
	}
	h.doneTail = p
	if h.doneN < h.retention {
		h.doneN++
		return
	}
	old := h.doneHead
	h.doneHead, old.next = old.next, nil
	delete(h.txs, old.event.TxID)
}

// EmitDirect fires an event immediately, bypassing per-node tracking. Used
// for client-visible rejections that never reach the chain.
func (h *Hub) EmitDirect(ev Event, at time.Time) {
	h.mu.Lock()
	fn := h.subs[ev.Client]
	h.mu.Unlock()
	if fn != nil {
		ev.FinalizedAt = at
		fn(ev)
	}
}

// PendingCount reports transactions persisted on some but not all nodes.
func (h *Hub) PendingCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.txs) - h.doneN
}

// EmittedCount reports fully finalized transactions over the hub's
// lifetime. Unlike the tombstone set, the counter is never pruned.
func (h *Hub) EmittedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.emitted
}

// TombstoneCount reports how many duplicate-suppression tombstones are
// currently retained; it is bounded by the retention regardless of run
// length.
func (h *Hub) TombstoneCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.doneN
}
