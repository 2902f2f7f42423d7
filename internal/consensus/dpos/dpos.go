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
	// Nums are the gossip numbers of Items, in the same order: every other
	// node drops them from its backlog.
	Nums []uint64
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
	// PackFilter, when set, screens candidate items at production time:
	// included must keep the order of items. Excluded items are dropped
	// from the producer's backlog permanently — BitShares uses this to keep
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

// gossipMsg is the wire message that spreads a submitted payload under its
// gossip number. A block travels as its ProducedBlock, boxed once by the
// witness that produced it: every replica hands that same value to
// OnDecide.
type gossipMsg struct {
	Num     uint64
	Payload any
}

// gossip is what the engines of one network share: their backlogs, kept
// once as one pool, and the counter that numbers the submitted payloads.
type gossip struct {
	pool *consensus.GossipPool[any]
	last uint64 // the number Submit handed out last
}

// Engine is one DPoS witness. Only the clock's event loop touches it, so
// it takes no lock.
type Engine struct {
	cfg Config

	slot     uint64 // next slot this node will consider
	seq      uint64
	running  bool
	produced uint64 // blocks produced by this witness

	// port is this node's transport port. fanout holds the ports of the
	// other witnesses, then of the other observers: gossip goes to its
	// first `witnesses` entries, blocks to all of it.
	port      *network.Port
	fanout    []*network.Port
	witnesses int

	sched  *schedule
	gossip *gossip // the network's backlogs, this engine's among them
	node   int     // this engine's node in gossip.pool

	loop *clock.Loop[network.Message]
}

// NewNetwork constructs the engines of one network, one per config; call
// Start on each to begin the schedule. Their schedule is a pure function of
// the witness count and ShuffleSeed, which the nodes of a network agree on,
// so they share one: a round's order is shuffled once, not once per engine.
// A config that disagrees with the first keeps a schedule of its own. All
// of them share one gossip pool, in which an engine's node is its config's
// position.
func NewNetwork(cfgs []Config) []*Engine {
	engines := make([]*Engine, len(cfgs))
	g := &gossip{pool: consensus.NewGossipPool[any](len(cfgs), 0)}
	var shared *schedule
	for i, cfg := range cfgs {
		if shared == nil {
			shared = newSchedule(len(cfg.Witnesses), cfg.ShuffleSeed)
		}
		sched := shared
		if len(cfg.Witnesses) != shared.n || cfg.ShuffleSeed != shared.seed {
			sched = newSchedule(len(cfg.Witnesses), cfg.ShuffleSeed)
		}
		engines[i] = newEngine(cfg, sched, g, i)
	}
	return engines
}

func newEngine(cfg Config, sched *schedule, g *gossip, node int) *Engine {
	cfg.fill()
	e := &Engine{
		cfg:    cfg,
		sched:  sched,
		gossip: g,
		node:   node,
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
	e.gossip.last++
	num := e.gossip.last
	e.gossip.pool.Admit(e.node, num, payload)

	var msg any = gossipMsg{Num: num, Payload: payload} // boxed once for every witness
	for _, w := range e.fanout[:e.witnesses] {
		_ = e.cfg.Transport.SendPort(e.port, w, "dpos.gossip", msg)
	}
	return nil
}

// Produced reports how many blocks this witness has produced.
func (e *Engine) Produced() uint64 { return e.produced }

// PendingCount returns the local gossip backlog.
func (e *Engine) PendingCount() int { return e.gossip.pool.Len(e.node) }

// witnessForSlot returns the scheduled witness. The order is shuffled every
// round (a round = one pass over all witnesses) per Graphene's
// shuffled-witness schedule.
func (e *Engine) witnessForSlot(slot uint64) string {
	return e.cfg.Witnesses[e.sched.witness(slot)]
}

func (e *Engine) handle(m network.Message) {
	switch p := m.Payload.(type) {
	case gossipMsg:
		e.gossip.pool.Admit(e.node, p.Num, p.Payload)
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
	items, nums := e.gossip.pool.TakeNumbered(e.node, e.cfg.MaxBlockItems)
	if e.cfg.PackFilter != nil {
		candidates := items
		items, _ = e.cfg.PackFilter(candidates)
		nums = includedNums(candidates, nums, items)
	}
	var blk any = ProducedBlock{Slot: slot, Witness: e.cfg.ID, Items: items, Nums: nums} // boxed once for every replica
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

// includedNums returns the numbers of included, which PackFilter picked
// from candidates in order, reusing nums, the numbers of candidates.
func includedNums(candidates []any, nums []uint64, included []any) []uint64 {
	kept, j := nums[:0], 0
	for _, it := range included {
		for j < len(candidates) && candidates[j] != it {
			j++
		}
		if j == len(candidates) {
			break // not one of the candidates, or out of order
		}
		kept = append(kept, nums[j])
		j++
	}
	return kept
}

// acceptBlock applies a block produced by another witness; boxed is blk
// as its witness boxed it, the decision's payload.
func (e *Engine) acceptBlock(blk ProducedBlock, boxed any) {
	for _, num := range blk.Nums {
		e.gossip.pool.Drop(e.node, num)
	}
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
