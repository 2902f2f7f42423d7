// Package dpos implements Delegated Proof-of-Stake block production as used
// by BitShares (Graphene): a fixed witness schedule where the scheduled
// witness produces, signs, and broadcasts one block per block_interval slot,
// and a new shuffled round starts when every witness has produced once.
//
// Unlike the voting protocols, DPoS has no per-block agreement phase — the
// schedule itself is the arbiter. This is why the paper finds BitShares'
// throughput insensitive to cluster size (§5.8.2): adding witnesses only
// stretches the schedule, it adds no quorum communication.
package dpos

import (
	"math/rand"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

// ProducedBlock is the decision payload delivered by the engine: the items
// the scheduled witness packed into its slot.
type ProducedBlock struct {
	// Slot is the global slot number of the block.
	Slot uint64
	// Witness produced the block.
	Witness string
	// Items are the payloads (transactions) included, in admission order.
	Items []any
}

// Config parameterizes a witness node.
type Config struct {
	// ID is this witness's transport endpoint name.
	ID string
	// Witnesses is the full witness schedule. A node whose ID is absent
	// from the schedule acts as an observer: it receives blocks but never
	// produces (BitShares runs 4 nodes with n-1 = 3 witnesses, Table 4).
	Witnesses []string
	// Observers lists non-witness nodes that must still receive produced
	// blocks.
	Observers []string
	// Transport carries gossip and block messages.
	Transport *network.Transport
	// Clock drives slot timing. Required.
	Clock *clock.AutoVirtual
	// OnDecide receives produced blocks in slot order.
	OnDecide consensus.DecideFunc
	// BlockInterval is the slot length (the paper's block_interval
	// parameter, default 1s there; tests use milliseconds).
	BlockInterval time.Duration
	// MaxBlockItems bounds the number of items per block; 0 = unbounded.
	MaxBlockItems int
	// PackFilter, when set, screens candidate items at production time.
	// Excluded items are dropped permanently — BitShares uses this to keep
	// interacting operations out of blocks (paper §5.3).
	PackFilter func(items []any) (included, excluded []any)
	// ShuffleSeed randomizes the per-round witness order deterministically.
	ShuffleSeed int64
}

func (c *Config) fill() {
	if c.Clock == nil {
		panic("dpos: Config.Clock is nil")
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = time.Second
	}
}

// gossipMsg is the wire message that spreads a submitted payload. A block
// travels as its ProducedBlock, boxed once by the witness that produced it:
// every replica hands that same value to OnDecide.
type gossipMsg struct {
	Digest  crypto.Hash
	Payload any
}

// Engine is one DPoS witness. Only the clock's event loop touches it, so
// it takes no lock.
type Engine struct {
	cfg Config

	slot     uint64 // next slot this node will consider
	seq      uint64
	nonce    uint64
	pending  []gossipMsg
	running  bool
	produced uint64 // blocks produced by this witness

	// port is this node's transport port. fanout holds the ports of the
	// other witnesses, then of the other observers: gossip goes to its
	// first `witnesses` entries, blocks to all of it.
	port      *network.Port
	fanout    []*network.Port
	witnesses int

	sched    *schedule
	seen     *consensus.GossipIndex // the gossip each node of the network admitted
	node     int                    // this engine's node in seen
	included map[any]struct{}       // scratch of dropIncluded, empty between calls

	loop *clock.Loop[network.Message]
}

// NewNetwork constructs the engines of one network, one per config; call
// Start on each to begin the schedule. Their schedule is a pure function of
// the witness count and ShuffleSeed, which the nodes of a network agree on,
// so they share one: a round's order is shuffled once, not once per engine.
// A config that disagrees with the first keeps a schedule of its own. All
// of them share one gossip index, in which an engine's node is its
// config's position.
func NewNetwork(cfgs []Config) []*Engine {
	engines := make([]*Engine, len(cfgs))
	seen := consensus.NewGossipIndex()
	var shared *schedule
	for i, cfg := range cfgs {
		if shared == nil {
			shared = newSchedule(len(cfg.Witnesses), cfg.ShuffleSeed)
		}
		sched := shared
		if len(cfg.Witnesses) != shared.n || cfg.ShuffleSeed != shared.seed {
			sched = newSchedule(len(cfg.Witnesses), cfg.ShuffleSeed)
		}
		engines[i] = newEngine(cfg, sched, seen, i)
	}
	return engines
}

func newEngine(cfg Config, sched *schedule, seen *consensus.GossipIndex, node int) *Engine {
	cfg.fill()
	e := &Engine{
		cfg:      cfg,
		sched:    sched,
		seen:     seen,
		node:     node,
		included: make(map[any]struct{}),
	}
	if tr := cfg.Transport; tr != nil {
		e.port = tr.Port(cfg.ID)
		others := func(ports []*network.Port, names []string) []*network.Port {
			for _, name := range names {
				if name != cfg.ID {
					ports = append(ports, tr.Port(name))
				}
			}
			return ports
		}
		e.fanout = others(make([]*network.Port, 0, len(cfg.Witnesses)+len(cfg.Observers)), cfg.Witnesses)
		e.witnesses = len(e.fanout)
		e.fanout = others(e.fanout, cfg.Observers)
	}
	e.loop = clock.NewLoop(cfg.Clock, "dpos/"+cfg.ID, e.handle, e.maybeProduce)
	return e
}

// schedule is the shuffled witness order of a network, one round at a time:
// a pure function of seed + round, kept until another round is asked for.
type schedule struct {
	n    int
	seed int64

	order   []int // shuffled witness indices of round; empty until first use
	round   uint64
	shuffle *rand.Rand // reseeded per round: a fresh source is 5 KB
}

func newSchedule(witnesses int, seed int64) *schedule {
	return &schedule{n: witnesses, seed: seed, shuffle: rand.New(rand.NewSource(seed))}
}

// witness returns the index of the witness scheduled for slot.
func (s *schedule) witness(slot uint64) int {
	n := uint64(s.n)
	round := slot / n
	if len(s.order) == 0 || round != s.round {
		s.order = s.order[:0]
		for i := 0; i < s.n; i++ {
			s.order = append(s.order, i)
		}
		s.shuffle.Seed(s.seed + int64(round))
		s.shuffle.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		s.round = round
	}
	return s.order[slot%n]
}

// Start joins the witness schedule and launches the witness's loop.
func (e *Engine) Start() error {
	if e.running {
		return nil
	}
	e.running = true
	e.cfg.Transport.Register(e.cfg.ID, e.loop.Post)
	e.loop.Every(e.cfg.BlockInterval)
	return nil
}

// Stop terminates the witness; its loop never runs again.
func (e *Engine) Stop() {
	if !e.running {
		return
	}
	e.running = false
	e.loop.Stop()
	e.cfg.Transport.Unregister(e.cfg.ID)
}

// Submit hands a payload to the witnesses for ordering: the payload is
// gossiped to every witness and included by whichever produces the next
// block.
func (e *Engine) Submit(payload any) error {
	if !e.running {
		return consensus.ErrNotRunning
	}
	e.nonce++
	g := gossipMsg{Digest: crypto.TxID(e.cfg.ID, e.nonce, nil), Payload: payload}
	e.seen.Admit(g.Digest, e.node)
	e.pending = append(e.pending, g)

	var msg any = g // boxed once for every witness
	for _, w := range e.fanout[:e.witnesses] {
		_ = e.cfg.Transport.SendPort(e.port, w, "dpos.gossip", msg)
	}
	return nil
}

// Produced reports how many blocks this witness has produced.
func (e *Engine) Produced() uint64 { return e.produced }

// PendingCount returns the local gossip backlog.
func (e *Engine) PendingCount() int { return len(e.pending) }

// witnessForSlot returns the scheduled witness. The order is shuffled every
// round (a round = one pass over all witnesses) per Graphene's
// shuffled-witness schedule.
func (e *Engine) witnessForSlot(slot uint64) string {
	return e.cfg.Witnesses[e.sched.witness(slot)]
}

func (e *Engine) handle(m network.Message) {
	switch p := m.Payload.(type) {
	case gossipMsg:
		if e.seen.Admit(p.Digest, e.node) {
			e.pending = append(e.pending, p)
		}
	case ProducedBlock:
		e.acceptBlock(p, m.Payload)
	}
}

// maybeProduce creates and broadcasts a block when this witness owns the
// current slot.
func (e *Engine) maybeProduce() {
	slot := e.slot
	if e.witnessForSlot(slot) != e.cfg.ID {
		// Not our slot. Slot consumption happens on block receipt; if the
		// scheduled witness is dead the slot is skipped after one interval.
		e.slot++
		return
	}
	n := len(e.pending)
	if e.cfg.MaxBlockItems > 0 && n > e.cfg.MaxBlockItems {
		n = e.cfg.MaxBlockItems
	}
	items := make([]any, n)
	for i := 0; i < n; i++ {
		items[i] = e.pending[i].Payload
	}
	e.pending = e.pending[n:]
	if e.cfg.PackFilter != nil {
		items, _ = e.cfg.PackFilter(items)
	}
	var blk any = ProducedBlock{Slot: slot, Witness: e.cfg.ID, Items: items} // boxed once for every replica
	e.slot++
	e.produced++
	e.seq++
	d := consensus.Decision{
		Seq:       e.seq,
		Payload:   blk,
		Proposer:  e.cfg.ID,
		DecidedAt: e.cfg.Clock.Now(),
	}
	for _, p := range e.fanout {
		_ = e.cfg.Transport.SendPort(e.port, p, "dpos.block", blk)
	}
	if cb := e.cfg.OnDecide; cb != nil {
		cb(d)
	}
}

// dropIncluded removes a block's items from the local backlog. Items travel
// as the gossiped payload values, so equality of the payload identifies
// them.
func (e *Engine) dropIncluded(items []any) {
	if len(items) == 0 {
		return
	}
	for _, it := range items {
		e.included[it] = struct{}{}
	}
	kept := e.pending[:0]
	for _, g := range e.pending {
		if _, drop := e.included[g.Payload]; !drop {
			kept = append(kept, g)
		}
	}
	clear(e.pending[len(kept):]) // let the dropped payloads go
	e.pending = kept
	clear(e.included)
}

// acceptBlock applies a block produced by another witness; boxed is blk
// as its witness boxed it, the decision's payload.
func (e *Engine) acceptBlock(blk ProducedBlock, boxed any) {
	e.dropIncluded(blk.Items)
	if blk.Slot >= e.slot {
		e.slot = blk.Slot + 1
	}
	e.seq++
	if cb := e.cfg.OnDecide; cb != nil {
		cb(consensus.Decision{
			Seq:       e.seq,
			Payload:   boxed,
			Proposer:  blk.Witness,
			DecidedAt: e.cfg.Clock.Now(),
		})
	}
}
