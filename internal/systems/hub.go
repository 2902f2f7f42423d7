package systems

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-bench/coconut/internal/crypto"
)

// Shard-plane defaults. Shard count must be a power of two so the tx-hash
// prefix maps to a shard with a mask instead of a modulo.
const (
	// DefaultShards is the number of independent lock domains. Commit
	// notifications for different transactions contend only when their
	// hashes share a prefix, so the hot path scales with cores.
	DefaultShards = 32
	// DefaultEmittedRetention bounds the per-shard tombstone set that
	// suppresses late duplicate reports after a transaction has emitted.
	// Older tombstones are pruned FIFO, so hub memory stays constant over
	// arbitrarily long runs instead of growing with every transaction.
	DefaultEmittedRetention = 1 << 14
)

// Hub aggregates per-node commit notifications and fires the end-to-end
// finalization event once every node in the network has persisted a
// transaction. It also routes events to the submitting client's
// subscription, mirroring COCONUT's event-based collection (§3).
//
// Internally the hub is sharded by transaction-hash prefix: each shard has
// its own lock and one transaction map whose finalized entries stay behind
// as tombstones for a bounded retention window, and node identities are
// interned once into dense indices so per-transaction tracking is a bitset
// rather than a map of node-ID strings. Aggregate counters are atomics, not
// map scans.
type Hub struct {
	nodes     int
	shardMask uint64
	shards    []hubShard
	retention int

	subsMu sync.RWMutex
	subs   map[string]EventFunc

	nodeMu  sync.RWMutex
	nodeIdx map[string]*HubNode

	pendingN atomic.Int64
	emittedN atomic.Int64
}

// hubShard is one lock domain of the hub. The pad keeps neighbouring shards
// off the same cache line under heavy cross-core commit traffic.
type hubShard struct {
	mu sync.Mutex
	// txs holds every transaction the shard knows: the ones still collecting
	// node reports and, marked done, the recently finalized ones, whose entry
	// stays behind as its own tombstone so late duplicate reports do not
	// re-open them. A report is one probe of this map.
	txs map[crypto.Hash]*pendingTx
	// doneQ is the retention ring of done entries, oldest at doneHead; a
	// full ring retires its oldest entry from txs for each new one.
	doneQ    []*pendingTx
	doneHead int
	_        [16]byte // pad the 48-byte struct to one 64-byte cache line
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
	// the TxID the ring retires it by.
	done bool
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

// WithShards sets the shard count; values are rounded up to a power of two.
// One shard reproduces the pre-sharding global-lock behaviour (useful for
// benchmarking the measurement-plane overhead).
func WithShards(n int) HubOption {
	return func(h *Hub) {
		if n < 1 {
			n = 1
		}
		if n&(n-1) != 0 {
			n = 1 << bits.Len(uint(n))
		}
		h.shards = make([]hubShard, n)
		h.shardMask = uint64(n - 1)
	}
}

// WithEmittedRetention sets how many finalized-transaction tombstones each
// shard retains for duplicate suppression before pruning the oldest.
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
		subs:      make(map[string]EventFunc),
		nodeIdx:   make(map[string]*HubNode),
		retention: DefaultEmittedRetention,
	}
	WithShards(DefaultShards)(h)
	for _, opt := range opts {
		opt(h)
	}
	for i := range h.shards {
		h.shards[i].txs = make(map[crypto.Hash]*pendingTx)
	}
	return h
}

// shardFor selects the lock domain from the transaction-hash prefix.
func (h *Hub) shardFor(id crypto.Hash) *hubShard {
	return &h.shards[binary.BigEndian.Uint64(id[:8])&h.shardMask]
}

// Subscribe registers fn as the listener for events whose Client matches.
func (h *Hub) Subscribe(client string, fn EventFunc) {
	h.subsMu.Lock()
	defer h.subsMu.Unlock()
	h.subs[client] = fn
}

// Node interns a node identity and returns its commit handle. Drivers
// resolve the handle once at provisioning time so the per-commit hot path
// never touches the node-ID string map.
func (h *Hub) Node(id string) *HubNode {
	h.nodeMu.RLock()
	n, ok := h.nodeIdx[id]
	h.nodeMu.RUnlock()
	if ok {
		return n
	}
	h.nodeMu.Lock()
	defer h.nodeMu.Unlock()
	if n, ok := h.nodeIdx[id]; ok {
		return n
	}
	n = &HubNode{hub: h, idx: len(h.nodeIdx), id: id}
	h.nodeIdx[id] = n
	return n
}

// NodeCommitted records that one node persisted the transaction described
// by ev. When all nodes have reported, the event fires to the client's
// subscription with FinalizedAt set to the last node's commit time.
// Duplicate reports from the same node are ignored.
//
// Drivers on the hot path should prefer a pre-resolved Node(...).Committed
// handle; this wrapper interns the node ID on every call.
func (h *Hub) NodeCommitted(nodeID string, ev Event, at time.Time) {
	h.Node(nodeID).Committed(ev, at)
}

// HubNode is one node's commit handle, bound to a dense node index.
type HubNode struct {
	hub *Hub
	idx int
	id  string
}

// ID returns the node identity the handle was interned for.
func (n *HubNode) ID() string { return n.id }

// Committed reports that this node persisted the transaction described by
// ev; semantics match Hub.NodeCommitted.
func (n *HubNode) Committed(ev Event, at time.Time) {
	h := n.hub
	s := h.shardFor(ev.TxID)

	s.mu.Lock()
	p, ok := s.txs[ev.TxID]
	if !ok {
		p = &pendingTx{event: ev}
		s.txs[ev.TxID] = p
		h.pendingN.Add(1)
	}
	if p.done || !p.mark(n.idx) || p.count < h.nodes {
		s.mu.Unlock()
		return
	}
	// Final node: emit exactly once. The transition happens under the shard
	// lock, the callback runs outside every lock.
	out := p.event
	p.done = true
	p.event = Event{TxID: ev.TxID} // the entry is a tombstone now: pin nothing
	p.more = nil
	s.retain(p, h.retention)
	s.mu.Unlock()
	h.pendingN.Add(-1)
	h.emittedN.Add(1)

	out.FinalizedAt = at
	h.deliver(out)
}

// retain enters a done transaction into the shard's retention ring,
// retiring the oldest tombstone once the ring is full. Caller holds the
// shard lock.
func (s *hubShard) retain(p *pendingTx, retention int) {
	if len(s.doneQ) < retention {
		s.doneQ = append(s.doneQ, p)
		return
	}
	delete(s.txs, s.doneQ[s.doneHead].event.TxID)
	s.doneQ[s.doneHead] = p
	s.doneHead = (s.doneHead + 1) % retention
}

func (h *Hub) deliver(ev Event) {
	h.subsMu.RLock()
	fn := h.subs[ev.Client]
	h.subsMu.RUnlock()
	if fn != nil {
		fn(ev)
	}
}

// EmitDirect fires an event immediately, bypassing per-node tracking. Used
// for client-visible rejections that never reach the chain.
func (h *Hub) EmitDirect(ev Event, at time.Time) {
	ev.FinalizedAt = at
	h.deliver(ev)
}

// PendingCount reports transactions persisted on some but not all nodes.
func (h *Hub) PendingCount() int {
	return int(h.pendingN.Load())
}

// EmittedCount reports fully finalized transactions over the hub's
// lifetime. Unlike the tombstone set, the counter is never pruned.
func (h *Hub) EmittedCount() int {
	return int(h.emittedN.Load())
}

// TombstoneCount reports how many duplicate-suppression tombstones are
// currently retained across all shards; it is bounded by
// shards × retention regardless of run length.
func (h *Hub) TombstoneCount() int {
	total := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		total += len(s.doneQ)
		s.mu.Unlock()
	}
	return total
}
