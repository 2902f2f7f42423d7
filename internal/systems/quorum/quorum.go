// Package quorum simulates ConsenSys Quorum with Istanbul BFT consensus as
// benchmarked in the paper: an Ethereum-derived account-model chain with the
// order-execute paradigm, block production every istanbul.blockperiod
// seconds, and gossiped transaction pools.
//
// Behaviours reproduced from the paper:
//   - Order-execute: transactions are ordered first and executed after
//     consensus; failed executions are still included in the block (§5.5).
//   - istanbul.blockperiod ∈ {1, 2, 5, 10}s controls block cadence (Table 6).
//   - The liveness violation: "when istanbul.blockperiod is low, combined
//     with a high rate limiter value, Quorum adds transactions to a queue,
//     but the queue is no longer processed" — nodes keep producing empty
//     blocks and every transaction is lost (§5.5). Modeled by a stall that
//     latches when the pool backlog crosses a limit while the block period
//     is at or below 2 paper seconds.
package quorum

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/bftcore"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
)

// Quorum's calibration.
const (
	defaultBP = 1 // istanbul.blockperiod, paper seconds
	// blockCapacity models Quorum's measured execution ceiling of ~820 tx/s
	// (the paper's DoNothing best is 773.60): the gas-limit equivalent is
	// capacity × block period, a count scaled with the clock.
	blockCapacity = 820
	// stallPeriodSec is the paper's "blockperiod <= 2" livelock trigger.
	stallPeriodSec = 2
	// stallBacklog is the pool backlog that latches the livelock. The paper
	// observed it at blockperiod <= 2 s with a high rate limiter, which
	// calibrates the boundary at RL × BP ~ 3200 payload-seconds; the backlog
	// at production time is RL × BP × Scale, so the threshold is a count
	// scaled identically to stay a fixed fraction of that boundary.
	stallBacklog = 2560
	// minStallBacklog keeps the livelock from latching on a backlog of one
	// at tiny scales.
	minStallBacklog = 2
)

// config is one Quorum network's calibration: the paper's parameters at an
// Env. Unit tests override a field to isolate one mechanism.
type config struct {
	blockPeriod time.Duration // istanbul.blockperiod, ×Scale
	maxBlockTxs int           // transactions per block
	// The livelock latches when the pool backlog exceeds stallQueueLimit
	// while the block period is at or below stallPeriodSec.
	stallQueueLimit int
}

func calibrate(env systems.Env, p systems.Params) config {
	bp := p.BP
	if bp == 0 {
		bp = defaultBP
	}
	return config{
		blockPeriod:     env.Paper(float64(bp)),
		maxBlockTxs:     env.Count(blockCapacity * bp),
		stallQueueLimit: max(env.Count(stallBacklog), minStallBacklog),
	}
}

// producedBlock is the IBFT payload.
type producedBlock struct {
	Txs      []*chain.Transaction
	FormedAt time.Time
	Producer string
}

// validator is one Quorum node.
type validator struct {
	systems.Replica
	index  int           // position in the network: the validator's node in pool
	gossip string        // the tx-gossip endpoint beside the engine's: ID + "-gossip"
	port   *network.Port // gossip's transport port
	engine *bftcore.Core

	stalled bool
}

// Network is a full Quorum deployment.
type Network struct {
	*systems.LedgerCluster
	env systems.Env
	cfg config

	validators []*validator
	// pool holds every validator's transaction pool, numbered by
	// Transaction.Num: what each validator admitted and still has queued.
	pool *consensus.GossipPool[*chain.Transaction]

	producer *clock.Event // produceOnProposer, once per block period
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Quorum network on env at the paper's parameters p.
func New(env systems.Env, p systems.Params) *Network { return build(env, calibrate(env, p)) }

func build(env systems.Env, cfg config) *Network {
	n := &Network{
		env:  env,
		cfg:  cfg,
		pool: consensus.NewGossipPool[*chain.Transaction](env.Nodes, 0),
	}
	n.producer = clock.NewEvent(env.Clock, "quorum/producer", n.produceOnProposer)
	names := systems.NodeIDs("quorum", env.Nodes)
	n.LedgerCluster = systems.NewLedgerCluster(systems.NameQuorum, names, env, n.poolBacklog)
	for i, r := range n.Replicas() {
		v := &validator{
			Replica: r,
			index:   i,
			gossip:  names[i] + "-gossip",
		}
		v.port = n.Transport.Port(v.gossip)
		v.Endpoints = []string{v.ID, v.gossip} // IBFT plus tx gossip
		v.engine = bftcore.New(bftcore.Config{
			ID:        v.ID,
			Peers:     names,
			Transport: n.Transport,
			Clock:     env.Clock,
			OnDecide:  n.makeDecideFunc(v),
			Proposer:  bftcore.RoundRobinByHeight, // Istanbul rotates per height
			MsgPrefix: "ibft",
			Digest: func(p any) crypto.Hash {
				blk, ok := p.(producedBlock)
				if !ok {
					return crypto.SumString(fmt.Sprintf("%v", p))
				}
				h := crypto.AcquireHasher()
				for _, tx := range blk.Txs {
					h.AppendLeaf(tx.ID)
				}
				root := h.MerkleRoot()
				h.Reset()
				h.WriteHash(root)
				h.WriteString(blk.Producer)
				h.WriteUint64(uint64(blk.FormedAt.UnixNano()))
				d := h.Sum()
				h.Release()
				return d
			},
		})
		n.validators = append(n.validators, v)
	}
	return n
}

// Start implements systems.Driver.
func (n *Network) Start() error {
	if !n.MarkStarted() {
		return nil
	}
	for i, v := range n.validators {
		// Gossip endpoints piggyback on the IBFT transport registration;
		// use a dedicated endpoint per validator for tx gossip.
		v := v
		n.Transport.Register(v.gossip, func(m network.Message) {
			tx, ok := m.Payload.(*chain.Transaction)
			if !ok {
				return
			}
			n.admit(v, tx)
		})
		if err := v.engine.Start(); err != nil {
			return fmt.Errorf("start validator %d: %w", i, err)
		}
	}
	n.producer.Every(n.cfg.blockPeriod)
	return nil
}

// Stop implements systems.Driver.
func (n *Network) Stop() {
	if !n.MarkStopped() {
		return
	}
	n.producer.Stop()
	for _, v := range n.validators {
		v.engine.Stop()
		n.Transport.Unregister(v.gossip)
	}
	n.Transport.Stop()
}

// Submit implements systems.Driver: the transaction enters the entry
// validator's pool and is gossiped to the others. Quorum's pool is
// unbounded, so Submit never rejects — overload shows up later as the
// livelock. The pool knows a transaction by its number, so an unnumbered
// one (Num 0) is refused with systems.ErrUnnumbered.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	if tx.Num == 0 {
		return systems.ErrUnnumbered
	}
	i, err := n.Entry(entryNode)
	if err != nil {
		return err
	}
	v := n.validators[i]
	n.admit(v, tx)
	for _, other := range n.validators {
		if other == v {
			continue
		}
		_ = n.Transport.SendPort(v.port, other.port, "quorum.tx", tx)
	}
	return nil
}

// admit adds a transaction to a validator's pool once.
func (n *Network) admit(v *validator, tx *chain.Transaction) {
	if !n.pool.Admit(v.index, tx.Num, tx) {
		return
	}
	// First admission into any pool ends the submit stage (gossip copies
	// share the pointer; the CAS keeps the earliest).
	tx.Stages.Mark(chain.StageSubmit, n.env.Clock.Now())
}

// produceOnProposer forms a block, once per block period, on whichever
// validator is the IBFT proposer, and evaluates the livelock condition.
func (n *Network) produceOnProposer() {
	for _, v := range n.validators {
		if v.engine.IsProposer() {
			n.produce(v)
			return
		}
	}
}

func (n *Network) produce(v *validator) {
	// Livelock latch: at a low block period under a deep backlog, the tx
	// queue permanently stops being processed (paper §5.5). The node still
	// participates in consensus and produces empty blocks.
	if !v.stalled &&
		n.cfg.blockPeriod <= n.env.Paper(stallPeriodSec) &&
		n.pool.Len(v.index) > n.cfg.stallQueueLimit {
		v.stalled = true
	}
	stalled := v.stalled

	var txs []*chain.Transaction
	if !stalled {
		txs = n.pool.Take(v.index, n.cfg.maxBlockTxs)
	}
	blk := producedBlock{Txs: txs, FormedAt: n.env.Clock.Now(), Producer: v.ID}
	if err := v.engine.Submit(blk); err != nil {
		if !stalled {
			// Requeue so the next period retries.
			for _, tx := range txs {
				_ = n.pool.Requeue(v.index, tx.Num, tx)
			}
		}
	}
}

// makeDecideFunc builds the order-execute commit pipeline for validator v.
// The commit plane is gated per validator: while v is crashed its decided
// blocks buffer, and RestartNode replays them in decision order. With a
// WAL mounted, the block's record is appended before it applies (an empty
// block still writes a header-only record).
func (n *Network) makeDecideFunc(v *validator) consensus.DecideFunc {
	apply := func(d consensus.Decision) { n.applyDecision(v, d) }
	return func(d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(producedBlock); ok {
			txs = len(blk.Txs)
		}
		systems.CommitTo(&v.Gate, txs, d, apply)
	}
}

func (n *Network) applyDecision(v *validator, d consensus.Decision) {
	blk, ok := d.Payload.(producedBlock)
	if !ok {
		return
	}
	// Execute after ordering against this validator's own state; all
	// validators execute identically in block order.
	cb := n.Sealer.Seal(v.Ledger.Head(), blk.Producer, blk.FormedAt, blk.Txs)
	if err := v.Ledger.Append(cb); err != nil {
		return
	}
	now := n.env.Clock.Now()
	// One consensus-round span per sampled block, emitted at validator 0's
	// apply site only (every validator applies the identical decision).
	if tr := n.env.Trace; v == n.validators[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameQuorum,
			Lane: "consensus", Start: blk.FormedAt.UnixNano(), End: now.UnixNano(), Block: cb.Number})
	}
	for txNum, tx := range blk.Txs {
		// The queue stage ended when the block formed. It is stamped here, by
		// whoever applies the block first, not by the producer after Submit:
		// on a real clock the decision can outrun the producer's return, and a
		// confirmation would reach the client with the mark still unset.
		tx.Stages.Mark(chain.StageQueue, blk.FormedAt)
		tx.Stages.Mark(chain.StageConsensus, now)
		execErr := v.ExecuteTx(tx, cb.Number, txNum)
		tx.Stages.Mark(chain.StageExecute, n.env.Clock.Now())
		ev := systems.Event{
			TxID:      tx.ID,
			Num:       tx.Num,
			Client:    tx.Client,
			Committed: true, // Ethereum includes failed txs in blocks
			ValidOK:   execErr == nil,
			Code:      systems.ClassifyAbort(execErr),
			OpCount:   tx.OpCount(),
			BlockNum:  cb.Number,
			Stages:    &tx.Stages,
		}
		v.Hub.Committed(ev, now)
	}
	// Drop the included txs from the local pool (they may still be queued
	// on validators that did not produce the block).
	for _, tx := range blk.Txs {
		n.pool.Drop(v.index, tx.Num)
	}
}

// Stalled reports whether any validator has latched the livelock.
func (n *Network) Stalled() bool {
	for _, v := range n.validators {
		if v.stalled {
			return true
		}
	}
	return false
}

// Drained overrides the chassis default: every pool is empty, or the
// livelock has latched (in which case the backlog will never drain and
// waiting longer is pointless).
func (n *Network) Drained() bool { return n.Stalled() || n.poolBacklog() == 0 }

// poolBacklog is the chassis' admission-depth hook: the pool backlog summed
// across validators.
func (n *Network) poolBacklog() int {
	depth := 0
	for _, v := range n.validators {
		depth += n.pool.Len(v.index)
	}
	return depth
}

// PoolDepth reports the deepest validator pool backlog.
func (n *Network) PoolDepth() int {
	depth := 0
	for _, v := range n.validators {
		if l := n.pool.Len(v.index); l > depth {
			depth = l
		}
	}
	return depth
}
