// Package bftcore implements the three-phase byzantine agreement state
// machine (pre-prepare, prepare, commit) shared by the Istanbul BFT engine
// used in Quorum (Moniz 2020) and the PBFT engine used in Sawtooth (Castro &
// Liskov 1999, as sawtooth-pbft deploys it). The two protocols differ in
// proposer selection policy — Istanbul rotates the proposer every height,
// PBFT's primary moves only on a view change — and in the prefix of their
// wire message kinds, which the two drivers set in Config; the quorum logic,
// round-change mechanism, and decision pipeline live here.
package bftcore

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

// ProposerPolicy selects the proposer for a given (height, round).
type ProposerPolicy func(peers []string, height uint64, round uint64) string

// RoundRobinByHeight rotates the proposer every height (Istanbul BFT's
// default "round robin" policy).
func RoundRobinByHeight(peers []string, height, round uint64) string {
	return peers[(height+round)%uint64(len(peers))]
}

// StickyPrimary keeps the primary fixed per view and only rotates on round
// change (PBFT's view-based primary).
func StickyPrimary(peers []string, _ uint64, round uint64) string {
	return peers[round%uint64(len(peers))]
}

// Config parameterizes the core.
type Config struct {
	// ID is this node's transport endpoint name.
	ID string
	// Peers lists every validator, including this node, in canonical order.
	Peers []string
	// Transport carries protocol messages.
	Transport *network.Transport
	// Clock drives the round-change timer. Required.
	Clock *clock.AutoVirtual
	// OnDecide receives decided payloads in height order.
	OnDecide consensus.DecideFunc
	// Proposer selects the proposer per (height, round).
	Proposer ProposerPolicy
	// RoundTimeout is how long a node waits at a height before asking for a
	// round change. Default 500ms.
	RoundTimeout time.Duration
	// Digest hashes payloads; defaults to hashing fmt.Sprintf("%v").
	Digest func(any) crypto.Hash
	// MsgPrefix namespaces wire message kinds (e.g. "ibft", "pbft").
	MsgPrefix string
}

func (c *Config) fill() {
	if c.Clock == nil {
		panic("bftcore: Config.Clock is nil")
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 500 * time.Millisecond
	}
	if c.Proposer == nil {
		c.Proposer = RoundRobinByHeight
	}
	if c.Digest == nil {
		// Stream the formatted payload straight into a pooled hasher: the
		// digest matches SumString(fmt.Sprintf("%v", p)) byte for byte but
		// skips the intermediate string.
		c.Digest = func(p any) crypto.Hash {
			h := crypto.AcquireHasher()
			fmt.Fprintf(h, "%v", p)
			d := h.Sum()
			h.Release()
			return d
		}
	}
	if c.MsgPrefix == "" {
		c.MsgPrefix = "bft"
	}
}

// Wire messages.
type (
	prePrepareMsg struct {
		Height  uint64
		Round   uint64
		Digest  crypto.Hash
		Payload any
	}
	prepareMsg struct {
		Height uint64
		Round  uint64
		Digest crypto.Hash
	}
	commitMsg struct {
		Height uint64
		Round  uint64
		Digest crypto.Hash
	}
	roundChangeMsg struct {
		Height   uint64
		NewRound uint64
	}
	forwardMsg struct {
		Payload any
	}
)

// pendingItem is a queued proposal plus its digest, used to deduplicate
// locally-queued copies once a forwarded copy is decided elsewhere.
type pendingItem struct {
	payload any
	digest  crypto.Hash
}

// instance tracks agreement progress at one height and round. The core owns
// one and resets it in place; the vote sets are addressed by peer index.
type instance struct {
	round       uint64
	proposal    any
	digest      crypto.Hash
	prepares    consensus.VoteSet
	commits     consensus.VoteSet
	roundChange consensus.VoteSet
	prepared    bool
	committed   bool
	startedAt   time.Time
}

// reset starts the instance over at the given round with empty vote sets.
func (in *instance) reset(round uint64, now time.Time) {
	in.prepares.Clear()
	in.commits.Clear()
	in.roundChange.Clear()
	*in = instance{round: round, prepares: in.prepares, commits: in.commits, roundChange: in.roundChange, startedAt: now}
}

// kinds are the wire message kinds under the configured prefix.
type kinds struct {
	forward, prePrepare, prepare, commit, roundChange string
}

// Core is one validator's three-phase agreement engine. Only the clock's
// event loop touches it — its own loop event, or a client calling Submit —
// so it takes no lock.
type Core struct {
	cfg   Config
	peers consensus.PeerIndex
	self  int // this node's index in cfg.Peers
	kind  kinds

	height      uint64 // next height to decide
	inst        instance
	pending     []pendingItem
	future      map[uint64][]network.Message  // messages for heights not yet reached
	futureRound map[uint64][]network.Message  // same-height messages from rounds ahead of ours
	roundAhead  map[uint64]*consensus.VoteSet // round -> peers seen ahead of us
	running     bool

	loop *clock.Loop[network.Message]
}

// New constructs a core; call Start to join the validator set.
func New(cfg Config) *Core {
	cfg.fill()
	n := len(cfg.Peers)
	peers := consensus.NewPeerIndex(cfg.Peers)
	c := &Core{
		cfg:   cfg,
		peers: peers,
		self:  peers.Of(cfg.ID),
		kind: kinds{
			forward:     cfg.MsgPrefix + ".forward",
			prePrepare:  cfg.MsgPrefix + ".preprepare",
			prepare:     cfg.MsgPrefix + ".prepare",
			commit:      cfg.MsgPrefix + ".commit",
			roundChange: cfg.MsgPrefix + ".roundchange",
		},
		height: 1,
		inst: instance{
			prepares:    consensus.NewVoteSet(n),
			commits:     consensus.NewVoteSet(n),
			roundChange: consensus.NewVoteSet(n),
		},
		future:      make(map[uint64][]network.Message),
		futureRound: make(map[uint64][]network.Message),
		roundAhead:  make(map[uint64]*consensus.VoteSet),
	}
	c.loop = clock.NewLoop(cfg.Clock, "bftcore/"+cfg.ID, c.handle, func() {
		c.tryPropose()
		c.checkRoundTimeout()
	})
	return c
}

// Start joins the validator set and launches the core's loop.
func (c *Core) Start() error {
	if c.running {
		return nil
	}
	c.running = true
	c.newInstance()
	c.cfg.Transport.Register(c.cfg.ID, c.loop.Post)
	c.loop.Every(c.cfg.RoundTimeout / 4)
	return nil
}

// Stop terminates the core; its loop never runs again.
func (c *Core) Stop() {
	if !c.running {
		return
	}
	c.running = false
	c.loop.Stop()
	c.cfg.Transport.Unregister(c.cfg.ID)
}

// Submit hands a payload to the core for ordering. The payload always
// queues locally so that it survives proposer failures; when this node is
// not the proposer, a copy is also forwarded to the current proposer for
// prompt ordering. The locally-queued copy is discarded once a matching
// digest is decided.
func (c *Core) Submit(payload any) error {
	if !c.running {
		return consensus.ErrNotRunning
	}
	c.pending = append(c.pending, pendingItem{payload: payload, digest: c.cfg.Digest(payload)})
	proposer := c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round)
	if proposer == c.cfg.ID {
		c.tryPropose()
		return nil
	}
	// Best effort: a failed forward is recovered by the round change.
	_ = c.cfg.Transport.Send(c.cfg.ID, proposer, c.kind.forward, forwardMsg{Payload: payload})
	return nil
}

// Height returns the next undecided height.
func (c *Core) Height() uint64 { return c.height }

// PendingCount returns the local proposal backlog length.
func (c *Core) PendingCount() int { return len(c.pending) }

// IsProposer reports whether this node proposes at the current (height,
// round).
func (c *Core) IsProposer() bool {
	return c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round) == c.cfg.ID
}

// newInstance starts the next height's instance: at round 0 after a
// decision, at the current round otherwise.
func (c *Core) newInstance() {
	round := c.inst.round
	if c.inst.committed {
		round = 0
	}
	c.inst.reset(round, c.cfg.Clock.Now())
	// Round tracking is per height; a fresh instance invalidates it.
	clear(c.futureRound)
	clear(c.roundAhead)
}

// enterRound abandons the current round for round r: this node's stranded
// proposal goes back to the head of the backlog, and the buffered messages
// of round r are replayed, then this node proposes if it is round r's
// proposer.
func (c *Core) enterRound(r uint64) {
	if c.inst.proposal != nil &&
		c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round) == c.cfg.ID {
		item := pendingItem{payload: c.inst.proposal, digest: c.inst.digest}
		c.pending = append([]pendingItem{item}, c.pending...)
	}
	c.inst.reset(r, c.cfg.Clock.Now())
	replay := c.futureRound[r]
	for rr := range c.futureRound {
		if rr <= r {
			delete(c.futureRound, rr)
		}
	}
	for rr := range c.roundAhead {
		if rr <= r {
			delete(c.roundAhead, rr)
		}
	}
	for _, bm := range replay {
		c.handle(bm)
	}
	c.tryPropose()
}

func (c *Core) handle(m network.Message) {
	// Buffer messages for heights this node has not reached yet; they are
	// replayed after the height advances. Without this, a fast proposer's
	// next pre-prepare races a slow validator's previous decision.
	if h, ok := msgHeight(m.Payload); ok {
		if h > c.height {
			c.future[h] = append(c.future[h], m)
			return
		}
		// Round catch-up: a node left behind in an old round would drop
		// agreement messages from the cluster's newer round and stall (its
		// in-flight proposal would be stranded forever). Buffer them and
		// jump once f+1 distinct peers are provably ahead.
		if r, rok := msgRound(m.Payload); rok && h == c.height && r > c.inst.round {
			c.futureRound[r] = append(c.futureRound[r], m)
			set := consensus.VoteSetAt(c.roundAhead, r, len(c.cfg.Peers))
			set.Add(c.peers.Of(m.From))
			if set.Count() >= consensus.FaultTolerance(len(c.cfg.Peers))+1 {
				c.enterRound(r)
			}
			return
		}
	}
	switch p := m.Payload.(type) {
	case forwardMsg:
		c.pending = append(c.pending, pendingItem{payload: p.Payload, digest: c.cfg.Digest(p.Payload)})
		c.tryPropose()
	case prePrepareMsg:
		c.onPrePrepare(p)
	case prepareMsg:
		c.onPrepare(m.From, p)
	case commitMsg:
		c.onCommit(m.From, p)
	case roundChangeMsg:
		c.onRoundChange(m.From, p)
	}
}

// msgRound extracts the round of agreement-phase messages (round-change
// messages are handled separately by onRoundChange).
func msgRound(payload any) (uint64, bool) {
	switch p := payload.(type) {
	case prePrepareMsg:
		return p.Round, true
	case prepareMsg:
		return p.Round, true
	case commitMsg:
		return p.Round, true
	default:
		return 0, false
	}
}

func msgHeight(payload any) (uint64, bool) {
	switch p := payload.(type) {
	case prePrepareMsg:
		return p.Height, true
	case prepareMsg:
		return p.Height, true
	case commitMsg:
		return p.Height, true
	case roundChangeMsg:
		return p.Height, true
	default:
		return 0, false
	}
}

// replayFuture re-handles buffered messages for the current height.
func (c *Core) replayFuture() {
	msgs := c.future[c.height]
	delete(c.future, c.height)
	// Garbage-collect anything below the current height.
	for h := range c.future {
		if h < c.height {
			delete(c.future, h)
		}
	}
	for _, m := range msgs {
		c.handle(m)
	}
}

// tryPropose broadcasts a pre-prepare if this node is the proposer at the
// current height/round, has a pending payload, and has not yet proposed.
func (c *Core) tryPropose() {
	if !c.running || c.inst.proposal != nil || len(c.pending) == 0 {
		return
	}
	if c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round) != c.cfg.ID {
		return
	}
	item := c.pending[0]
	c.pending = c.pending[1:]
	c.inst.proposal = item.payload
	c.inst.digest = item.digest
	c.inst.prepares.Add(c.self)
	c.broadcast(c.kind.prePrepare, prePrepareMsg{Height: c.height, Round: c.inst.round, Digest: item.digest, Payload: item.payload})
	c.broadcast(c.kind.prepare, prepareMsg{Height: c.height, Round: c.inst.round, Digest: item.digest})
	c.advance()
}

func (c *Core) onPrePrepare(p prePrepareMsg) {
	if p.Height != c.height || p.Round != c.inst.round || c.inst.proposal != nil {
		return
	}
	c.inst.proposal = p.Payload
	c.inst.digest = p.Digest
	c.inst.prepares.Add(c.self)
	c.broadcast(c.kind.prepare, prepareMsg{Height: c.height, Round: c.inst.round, Digest: p.Digest})
	c.advance()
}

func (c *Core) onPrepare(from string, p prepareMsg) {
	if p.Height != c.height || p.Round != c.inst.round {
		return
	}
	c.inst.prepares.Add(c.peers.Of(from))
	c.advance()
}

func (c *Core) onCommit(from string, p commitMsg) {
	if p.Height != c.height || p.Round != c.inst.round {
		return
	}
	c.inst.commits.Add(c.peers.Of(from))
	c.advance()
}

// advance drives the prepared → committed → decided transitions.
func (c *Core) advance() {
	quorum := consensus.QuorumSize(len(c.cfg.Peers))
	if c.inst.proposal != nil && !c.inst.prepared && c.inst.prepares.Count() >= quorum {
		c.inst.prepared = true
		c.inst.commits.Add(c.self)
		c.broadcast(c.kind.commit, commitMsg{Height: c.height, Round: c.inst.round, Digest: c.inst.digest})
	}
	if c.inst.proposal == nil || !c.inst.prepared || c.inst.committed || c.inst.commits.Count() < quorum {
		return
	}
	c.inst.committed = true
	// Drop local copies of the decided payload from the backlog.
	kept := c.pending[:0]
	for _, it := range c.pending {
		if it.digest != c.inst.digest {
			kept = append(kept, it)
		}
	}
	c.pending = kept
	d := consensus.Decision{
		Seq:       c.height,
		Payload:   c.inst.proposal,
		Proposer:  c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round),
		DecidedAt: c.cfg.Clock.Now(),
	}
	c.height++
	c.newInstance()
	if cb := c.cfg.OnDecide; cb != nil {
		cb(d)
	}
	c.replayFuture()
	c.tryPropose()
}

// checkRoundTimeout fires a round change when the current height has been
// stuck longer than RoundTimeout.
func (c *Core) checkRoundTimeout() {
	if c.inst.committed || c.cfg.Clock.Since(c.inst.startedAt) < c.cfg.RoundTimeout {
		return
	}
	// Only escalate when there is something to decide.
	if c.inst.proposal == nil && len(c.pending) == 0 {
		c.inst.startedAt = c.cfg.Clock.Now()
		return
	}
	// Re-forward the stranded payload to the current proposer: a payload
	// queued only on this node makes no progress otherwise, because a
	// single node's round-change request can never reach quorum while the
	// other validators see nothing wrong.
	if proposer := c.cfg.Proposer(c.cfg.Peers, c.height, c.inst.round); len(c.pending) > 0 && proposer != c.cfg.ID {
		_ = c.cfg.Transport.Send(c.cfg.ID, proposer, c.kind.forward, forwardMsg{Payload: c.pending[0].payload})
	}
	c.inst.roundChange.Add(c.self)
	c.broadcast(c.kind.roundChange, roundChangeMsg{Height: c.height, NewRound: c.inst.round + 1})
	c.maybeChangeRound()
}

func (c *Core) onRoundChange(from string, p roundChangeMsg) {
	if p.Height != c.height || p.NewRound <= c.inst.round {
		return
	}
	c.inst.roundChange.Add(c.peers.Of(from))
	// Join rule: once f+1 peers ask for a round change, a correct node
	// joins even if it saw no local stall — otherwise a single stalled
	// node can never assemble a quorum.
	if !c.inst.roundChange.Has(c.self) &&
		c.inst.roundChange.Count() >= consensus.FaultTolerance(len(c.cfg.Peers))+1 {
		c.inst.roundChange.Add(c.self)
		c.broadcast(c.kind.roundChange, roundChangeMsg{Height: c.height, NewRound: p.NewRound})
	}
	c.maybeChangeRound()
}

func (c *Core) maybeChangeRound() {
	if c.inst.roundChange.Count() < consensus.QuorumSize(len(c.cfg.Peers)) {
		return
	}
	// Move to the smallest round a quorum agrees to reach.
	c.enterRound(c.inst.round + 1)
}

func (c *Core) broadcast(kind string, payload any) {
	for _, p := range c.cfg.Peers {
		if p == c.cfg.ID {
			continue
		}
		_ = c.cfg.Transport.Send(c.cfg.ID, p, kind, payload)
	}
}
