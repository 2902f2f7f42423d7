package systems

import (
	"time"

	"github.com/coconut-bench/coconut/internal/crypto"
)

// Hub aggregates per-node commit notifications and fires the end-to-end
// finalization event once every node in the network has persisted a
// transaction. It also routes events to the submitting client's
// subscription, mirroring COCONUT's event-based collection (§3).
//
// Only the clock's event loop touches it, so it takes no lock. Node
// identities are interned once into dense indices so per-transaction
// tracking is a bitset rather than a map of node-ID strings, and
// transactions are indexed by their dense number in the repetition
// (Event.Num), so a report is one slice index rather than a hash probe.
type Hub struct {
	nodes int

	subs    map[string]EventFunc
	nodeIdx map[string]*HubNode
	// state holds every transaction the hub has heard of, indexed by its
	// number: unseen (0), collecting node reports in slab slot s (s+1), or
	// emitted (emittedState, -1). An emitted transaction stays emitted for
	// the hub's lifetime, one repetition, so late duplicate reports never
	// re-open it.
	state []int32
	// slab holds the pending transactions; a finalized one's slot goes on
	// free for the next transaction to reuse.
	slab    []pendingTx
	free    []int32
	emitted int

	// byID and unnumbered are the unnumbered path (hubshim.go): byID
	// numbers a transaction whose events carry no number by its ID, into
	// unnumbered, which holds its state as state does.
	byID       map[crypto.Hash]int32
	unnumbered []int32
}

// emittedState is the state of a finalized transaction.
const emittedState int32 = -1

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

// NewHub creates a hub for a network of the given node count.
func NewHub(nodes int) *Hub {
	return &Hub{
		nodes:   nodes,
		subs:    make(map[string]EventFunc),
		nodeIdx: make(map[string]*HubNode),
	}
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
	st := h.entry(ev)
	if *st == emittedState {
		return
	}
	if *st == 0 {
		*st = h.open(ev) + 1
	}
	slot := *st - 1
	p := &h.slab[slot]
	if !p.mark(n.idx) || p.count < h.nodes {
		return
	}
	// Final node: emit exactly once. The transition completes before the
	// callback runs, so a report the callback causes sees it emitted.
	out := p.event
	h.release(slot)
	*st = emittedState
	h.emitted++
	if fn := h.subs[out.Client]; fn != nil {
		out.FinalizedAt = at
		fn(out)
	}
}

// entry returns the state of ev's transaction, growing the index to its
// number. The pointer is valid until the next entry call.
func (h *Hub) entry(ev Event) *int32 {
	if ev.Num == 0 {
		return h.unnumberedEntry(ev.TxID)
	}
	if ev.Num >= uint64(len(h.state)) {
		h.state = growStates(h.state, ev.Num)
	}
	return &h.state[ev.Num]
}

// growStates extends s, doubling it from at least 1024 entries, until index
// i is in range; the new states are unseen.
func growStates(s []int32, i uint64) []int32 {
	n := max(2*len(s), int(i)+1, 1024)
	return append(s, make([]int32, n-len(s))...)
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
	return len(h.slab) - len(h.free)
}

// EmittedCount reports fully finalized transactions over the hub's
// lifetime.
func (h *Hub) EmittedCount() int {
	return h.emitted
}
