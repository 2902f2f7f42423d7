// Package diembft implements the DiemBFT v4 consensus protocol (Diem's
// HotStuff derivative) in the simplified chained form: a rotating leader per
// round proposes a block carrying a quorum certificate (QC) for its parent;
// validators vote to the next round's leader; a block commits under the
// two-chain rule once a QC forms on a contiguous-round child.
//
// A pacemaker advances rounds on timeout quorums so the chain keeps moving
// past silent leaders. The leader takes each block's payload from its
// Config.PayloadSource; when that has nothing it proposes an empty block —
// Diem does the same, which is why the paper observes Diem blocks that
// never saturate (§5.7).
package diembft

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

// Config parameterizes a DiemBFT validator.
type Config struct {
	// ID is this validator's transport endpoint name.
	ID string
	// Validators lists the full validator set, including this node.
	Validators []string
	// Transport carries protocol messages.
	Transport *network.Transport
	// Clock drives the pacemaker. Required.
	Clock *clock.AutoVirtual
	// OnDecide receives committed non-empty payloads in commit order.
	OnDecide consensus.DecideFunc
	// RoundInterval is the cadence at which the leader proposes. Default
	// 20ms.
	RoundInterval time.Duration
	// PayloadSource is consulted once by the leader of each round for the
	// block's payload; returning nil, or leaving it unset, proposes an empty
	// block. Systems use it to pull a freshly formed block (e.g. up to
	// max_block_size transactions) at proposal time.
	PayloadSource func() any
}

func (c *Config) fill() {
	if c.Clock == nil {
		panic("diembft: Config.Clock is nil")
	}
	if c.RoundInterval <= 0 {
		c.RoundInterval = 20 * time.Millisecond
	}
}

// timeoutRounds is the pacemaker's per-round timeout in round intervals.
const timeoutRounds = 10

// qc is a quorum certificate over a block at a round.
type qc struct {
	BlockID crypto.Hash
	Round   uint64
}

// blockNode is a proposal in the block tree. The proposer's node is the one
// every validator stores, so no field is written after tryPropose builds it.
type blockNode struct {
	ID       crypto.Hash
	Round    uint64
	ParentID crypto.Hash
	Payload  any // nil for empty blocks
	Proposer string
}

// Wire messages.
type (
	proposalMsg struct {
		Block     *blockNode
		JustifyQC qc
	}
	voteMsg struct {
		BlockID crypto.Hash
		Round   uint64
		Voter   string
	}
	timeoutMsg struct {
		Round uint64
	}
	qcMsg struct {
		QC qc
	}
)

// Engine is one DiemBFT validator. Only the clock's event loop touches it,
// so it takes no lock.
type Engine struct {
	cfg        Config
	validators consensus.PeerIndex

	round     uint64
	highQC    qc
	blocks    map[crypto.Hash]*blockNode
	votes     map[crypto.Hash]*consensus.VoteSet // by validator index
	timeouts  map[uint64]*consensus.VoteSet      // by validator index
	committed map[crypto.Hash]bool
	seq       uint64
	voted     map[uint64]bool // rounds this node voted in
	proposed  uint64          // the round of this node's last proposal; 0 before the first
	running   bool
	// lastProgress is when the pacemaker last saw progress or fired a
	// timeout; timeoutRounds round intervals without either fire the next.
	lastProgress time.Time

	loop *clock.Loop[network.Message]
}

// New constructs a validator; call Start to join.
func New(cfg Config) *Engine {
	cfg.fill()
	genesis := &blockNode{ID: crypto.SumString("diem-genesis"), Round: 0}
	e := &Engine{
		cfg:        cfg,
		validators: consensus.NewPeerIndex(cfg.Validators),
		round:      1,
		highQC:     qc{BlockID: genesis.ID, Round: 0},
		blocks:     map[crypto.Hash]*blockNode{genesis.ID: genesis},
		votes:      make(map[crypto.Hash]*consensus.VoteSet),
		timeouts:   make(map[uint64]*consensus.VoteSet),
		committed:  make(map[crypto.Hash]bool),
		voted:      make(map[uint64]bool),
	}
	e.loop = clock.NewLoop(cfg.Clock, "diembft/"+cfg.ID, func(m network.Message) {
		if e.handle(m) { // progress holds off the pacemaker's timeout
			e.lastProgress = e.cfg.Clock.Now()
		}
	}, e.tick)
	return e
}

// Start joins the validator set and launches the validator's loop.
func (e *Engine) Start() error {
	if e.running {
		return nil
	}
	e.running = true
	e.cfg.Transport.Register(e.cfg.ID, e.loop.Post)
	e.lastProgress = e.cfg.Clock.Now()
	e.loop.Every(e.cfg.RoundInterval)
	return nil
}

// Stop terminates the validator; its loop never runs again.
func (e *Engine) Stop() {
	if !e.running {
		return
	}
	e.running = false
	e.loop.Stop()
	e.cfg.Transport.Unregister(e.cfg.ID)
}

// Round returns the validator's current round.
func (e *Engine) Round() uint64 { return e.round }

func (e *Engine) leaderOf(round uint64) string {
	return e.cfg.Validators[round%uint64(len(e.cfg.Validators))]
}

// blockID derives a proposal's identifier on one pooled hasher. The byte
// stream matches the historical Sum(parent, round, proposer,
// SumString("%v"-payload)) concatenation.
func blockID(parent crypto.Hash, round uint64, proposer string, payload any) crypto.Hash {
	h := crypto.AcquireHasher()
	fmt.Fprintf(h, "%v", payload)
	payloadDigest := h.Sum()
	h.Reset()
	h.WriteHash(parent)
	h.WriteUint64(round)
	h.WriteString(proposer)
	h.WriteHash(payloadDigest)
	id := h.Sum()
	h.Release()
	return id
}

// tick is the validator's propose tick, which also fires the round timeout
// once timeoutRounds round intervals pass without progress.
func (e *Engine) tick() {
	e.tryPropose()
	if e.cfg.Clock.Since(e.lastProgress) > timeoutRounds*e.cfg.RoundInterval {
		e.fireTimeout()
		e.lastProgress = e.cfg.Clock.Now()
	}
}

// tryPropose makes the round leader propose one block per round: the
// PayloadSource's payload, or an empty block to keep the chain advancing.
func (e *Engine) tryPropose() {
	// One proposal per round. Rounds only rise, and only this function
	// builds a block this node proposed, so the round of the last one says
	// whether this round already has it.
	if !e.running || e.leaderOf(e.round) != e.cfg.ID || e.proposed == e.round {
		return
	}
	e.proposed = e.round
	var payload any
	if e.cfg.PayloadSource != nil {
		payload = e.cfg.PayloadSource()
	}
	parent := e.highQC
	blk := &blockNode{
		ID:       blockID(parent.BlockID, e.round, e.cfg.ID, payload),
		Round:    e.round,
		ParentID: parent.BlockID,
		Payload:  payload,
		Proposer: e.cfg.ID,
	}
	e.blocks[blk.ID] = blk
	var msg any = proposalMsg{Block: blk, JustifyQC: parent} // boxed once for every validator

	for _, v := range e.cfg.Validators {
		if v == e.cfg.ID {
			continue
		}
		_ = e.cfg.Transport.Send(e.cfg.ID, v, "diembft.proposal", msg)
	}
	// Vote for our own proposal.
	e.onVote(e.cfg.ID, voteMsg{BlockID: blk.ID, Round: blk.Round, Voter: e.cfg.ID})
}

// handle processes one message; it reports whether the message indicates
// protocol progress (for the pacemaker).
func (e *Engine) handle(m network.Message) bool {
	switch p := m.Payload.(type) {
	case proposalMsg:
		return e.onProposal(p)
	case voteMsg:
		return e.onVote(m.From, p)
	case qcMsg:
		return e.updateQC(p.QC)
	case timeoutMsg:
		e.onTimeout(m.From, p)
		return false
	default:
		return false
	}
}

func (e *Engine) onProposal(p proposalMsg) bool {
	e.updateQC(p.JustifyQC)
	if p.Block.Round < e.round || e.voted[p.Block.Round] || e.leaderOf(p.Block.Round) != p.Block.Proposer {
		return false
	}
	b := p.Block
	e.blocks[b.ID] = b
	e.voted[b.Round] = true
	if b.Round > e.round {
		e.round = b.Round
	}
	nextLeader := e.leaderOf(b.Round + 1)
	vote := voteMsg{BlockID: b.ID, Round: b.Round, Voter: e.cfg.ID}

	var msg any = vote // boxed once for both leaders
	if nextLeader == e.cfg.ID {
		e.onVote(e.cfg.ID, vote)
	} else {
		_ = e.cfg.Transport.Send(e.cfg.ID, nextLeader, "diembft.vote", msg)
	}
	// The current leader also aggregates votes for its own block.
	if cur := e.leaderOf(b.Round); cur != e.cfg.ID && cur != nextLeader {
		_ = e.cfg.Transport.Send(e.cfg.ID, cur, "diembft.vote", msg)
	}
	return true
}

// onVote counts a vote its voter sent itself; one relayed under another
// name, or cast by a non-validator, is ignored.
func (e *Engine) onVote(from string, v voteMsg) bool {
	voter := e.validators.Of(v.Voter)
	if v.Voter != from || voter < 0 {
		return false
	}
	set := consensus.VoteSetAt(e.votes, v.BlockID, len(e.cfg.Validators))
	set.Add(voter)
	if set.Count() < consensus.QuorumSize(len(e.cfg.Validators)) {
		return true
	}
	newQC := qc{BlockID: v.BlockID, Round: v.Round}
	if e.updateQC(newQC) {
		// Share the certificate so every validator observes the commit.
		var msg any = qcMsg{QC: newQC} // boxed once for every validator
		for _, val := range e.cfg.Validators {
			if val == e.cfg.ID {
				continue
			}
			_ = e.cfg.Transport.Send(e.cfg.ID, val, "diembft.qc", msg)
		}
	}
	return true
}

// updateQC adopts a higher QC, advances the round past it, and applies the
// two-chain commit rule. Returns whether state changed.
func (e *Engine) updateQC(c qc) bool {
	if c.Round < e.highQC.Round {
		return false
	}
	changed := c.Round > e.highQC.Round
	e.highQC = c
	if c.Round+1 > e.round {
		e.round = c.Round + 1
	}
	// Two-chain rule: a QC on block B commits B's parent when the rounds
	// are contiguous.
	b, ok := e.blocks[c.BlockID]
	if !ok {
		return changed
	}
	parent, ok := e.blocks[b.ParentID]
	if !ok || parent.Round == 0 {
		return changed
	}
	if b.Round == parent.Round+1 {
		e.commitChain(parent)
	}
	return changed
}

// commitChain commits the given block and its uncommitted ancestors, oldest
// first.
func (e *Engine) commitChain(b *blockNode) {
	if e.committed[b.ID] {
		return
	}
	var chain []*blockNode
	for cur := b; cur != nil && cur.Round > 0 && !e.committed[cur.ID]; {
		chain = append(chain, cur)
		next, ok := e.blocks[cur.ParentID]
		if !ok {
			break
		}
		cur = next
	}
	for i := len(chain) - 1; i >= 0; i-- {
		blk := chain[i]
		e.committed[blk.ID] = true
		if blk.Payload == nil {
			continue // empty pacemaker blocks carry nothing to deliver
		}
		e.seq++
		if cb := e.cfg.OnDecide; cb != nil {
			cb(consensus.Decision{
				Seq:       e.seq,
				Payload:   blk.Payload,
				Proposer:  blk.Proposer,
				DecidedAt: e.cfg.Clock.Now(),
			})
		}
	}
}

func (e *Engine) fireTimeout() {
	round := e.round
	consensus.VoteSetAt(e.timeouts, round, len(e.cfg.Validators)).Add(e.validators.Of(e.cfg.ID))
	var msg any = timeoutMsg{Round: round} // boxed once for every validator
	for _, v := range e.cfg.Validators {
		if v == e.cfg.ID {
			continue
		}
		_ = e.cfg.Transport.Send(e.cfg.ID, v, "diembft.timeout", msg)
	}
	e.maybeAdvanceOnTimeout(round)
}

func (e *Engine) onTimeout(from string, t timeoutMsg) {
	consensus.VoteSetAt(e.timeouts, t.Round, len(e.cfg.Validators)).Add(e.validators.Of(from))
	e.maybeAdvanceOnTimeout(t.Round)
}

func (e *Engine) maybeAdvanceOnTimeout(round uint64) {
	if round != e.round {
		return
	}
	if set := e.timeouts[round]; set != nil && set.Count() >= consensus.QuorumSize(len(e.cfg.Validators)) {
		e.round++
		delete(e.timeouts, round)
	}
}
