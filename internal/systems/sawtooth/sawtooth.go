// Package sawtooth simulates Hyperledger Sawtooth 1.2.6 with the
// sawtooth-pbft consensus engine as benchmarked in the paper: transactions
// grouped into atomic batches, a bounded admission queue that rejects
// submissions under load, and block publishing governed by
// sawtooth.consensus.pbft.block_publishing_delay.
//
// Behaviours reproduced from the paper:
//   - "the management of a queue that rejects new incoming transactions if
//     the occupancy of the queue is too high. In this case, it is required
//     to re-send the rejected transaction or the atomic batch" (§5.6) — the
//     dominant source of Sawtooth's lost transactions. Submit returns
//     mempool.ErrQueueFull so COCONUT can count the loss.
//   - Atomic batches: "if a transaction fails within a batch, the entire
//     batch ... is completely discarded" (§5.6). Discarded batches produce
//     no client events at all.
//   - block_publishing_delay ∈ {1, 2, 5, 10}s paces block creation
//     (Table 6); adjusting it "does not reveal any significant difference".
package sawtooth

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/bftcore"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
)

// Sawtooth's calibration. Its measured capacity is dominated by batch
// validation, not by block_publishing_delay — the paper finds PD "does not
// reveal any significant difference" (§5.6). The model drains one batch per
// block at a real-time per-batch cost of 25 ms fixed + 10 ms per member
// transaction, which reproduces both the ~80-100 payloads/s ceiling at
// batch=100 and the ~26-35 at batch=1; a scaled PD only takes over when it
// is longer.
const (
	batchFixedCost  = 25 * time.Millisecond
	batchMemberCost = 10 * time.Millisecond
	queueDepth      = 8 // per-validator batch admission bound, the paper's rejection-heavy queue
	maxBlockBatches = 1 // batches per block
	// pendingStallAtValidators reproduces the paper's §5.8.2 finding for
	// large networks: with 16 and 32 validators "all transactions remain in
	// the pending state without being finalized". At or above this
	// validator count, the primary stops publishing blocks. The upstream
	// root cause is unknown; this models the observation.
	pendingStallAtValidators = 16
)

// config is one Sawtooth network's calibration: the paper's parameters at
// an Env. Unit tests override a field to isolate one mechanism.
type config struct {
	publishingDelay time.Duration // block cadence
	pendingStallAt  int
}

func calibrate(env systems.Env, p systems.Params) config {
	batch := max(p.Actions, 1)
	pd := batchFixedCost + time.Duration(batch)*batchMemberCost
	if scaled := env.Paper(float64(p.PD)); scaled > pd {
		pd = scaled
	}
	return config{
		publishingDelay: pd,
		pendingStallAt:  pendingStallAtValidators,
	}
}

// publishedBlock is the PBFT payload.
type publishedBlock struct {
	Batches     []*chain.Batch
	Txs         []*chain.Transaction // the batches' members, in order
	PublishedAt time.Time
	Publisher   string
}

// validator is one Sawtooth node.
type validator struct {
	*systems.Node
	index  int           // position in the network: the validator's node in queues
	gossip string        // the batch-gossip endpoint beside the engine's: ID + "-gossip"
	port   *network.Port // gossip's transport port
	engine *bftcore.Core
}

// Network is a full Sawtooth deployment.
type Network struct {
	*systems.LedgerCluster
	env systems.Env
	cfg config

	validators []*validator
	// queues holds every validator's bounded batch queue, numbered by
	// Batch.Num: what each validator admitted and still has queued.
	queues *consensus.GossipPool[*chain.Batch]

	publisher *clock.Event // publish, once per publishing delay
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Sawtooth network on env at the paper's parameters p.
func New(env systems.Env, p systems.Params) *Network { return build(env, calibrate(env, p)) }

func build(env systems.Env, cfg config) *Network {
	n := &Network{
		env:    env,
		cfg:    cfg,
		queues: consensus.NewGossipPool[*chain.Batch](env.Nodes, queueDepth),
	}
	n.publisher = clock.NewEvent(env.Clock, "sawtooth/publisher", n.publish)
	names := systems.NodeIDs("sawtooth", env.Nodes)
	n.LedgerCluster = systems.NewLedgerCluster(systems.NameSawtooth, names, env, n.queueBacklog)
	for i := range names {
		v := &validator{
			Node:   n.Node(i),
			index:  i,
			gossip: names[i] + "-gossip",
		}
		v.port = n.Transport.Port(v.gossip)
		v.Endpoints = []string{v.ID, v.gossip} // PBFT plus batch gossip
		v.engine = bftcore.New(bftcore.Config{
			ID:        v.ID,
			Peers:     names,
			Transport: n.Transport,
			Clock:     env.Clock,
			// Atomic batches: a failing batch is discarded entirely and its
			// transactions produce no events (§5.6).
			OnDecide:  n.Decide(i, systems.Atomic, asBlock, n.dropPublished),
			Proposer:  bftcore.StickyPrimary, // the primary rotates on view change only
			MsgPrefix: "pbft",
			Digest:    systems.Digest(asBlock),
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
		v := v
		n.Transport.Register(v.gossip, func(m network.Message) {
			b, ok := m.Payload.(*chain.Batch)
			if !ok {
				return
			}
			n.admitGossip(v, b)
		})
		if err := v.engine.Start(); err != nil {
			return fmt.Errorf("start validator %d: %w", i, err)
		}
	}
	n.publisher.Every(n.cfg.publishingDelay)
	return nil
}

// Stop implements systems.Driver.
func (n *Network) Stop() {
	if !n.MarkStopped() {
		return
	}
	n.publisher.Stop()
	for _, v := range n.validators {
		v.engine.Stop()
		n.Transport.Unregister(v.gossip)
	}
	n.Transport.Stop()
}

// Submit implements systems.Driver for single transactions: it wraps the
// transaction in a one-element batch. Use SubmitBatch for multi-transaction
// atomic batches.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	return n.SubmitBatch(entryNode, chain.NewBatch(tx))
}

// SubmitBatch admits an atomic batch at the entry validator. A full queue
// rejects with mempool.ErrQueueFull; the caller must re-send (or, as the
// paper's clients do, count the batch as lost). The queues know a batch by
// its number, so an unnumbered one (Num 0) is refused with
// systems.ErrUnnumbered.
func (n *Network) SubmitBatch(entryNode int, b *chain.Batch) error {
	if b.Num == 0 {
		return systems.ErrUnnumbered
	}
	i, err := n.Entry(entryNode)
	if err != nil {
		return err
	}
	v := n.validators[i]
	// A rejected batch is left unadmitted, so it can be re-sent.
	if fresh, err := n.queues.Offer(v.index, b.Num, b); !fresh {
		return err // nil for a batch already admitted; backpressure otherwise
	}
	admitted := n.env.Clock.Now()
	for _, tx := range b.Txs {
		tx.Stages.Mark(chain.StageSubmit, admitted)
	}
	// Gossip to the other validators so the PBFT primary can publish it.
	for _, other := range n.validators {
		if other == v {
			continue
		}
		_ = n.Transport.SendPort(v.port, other.port, "sawtooth.batch", b)
	}
	return nil
}

// admitGossip adds gossiped batches without backpressure errors (peer
// validators drop silently on overflow, as the real gossip layer does).
func (n *Network) admitGossip(v *validator, b *chain.Batch) {
	n.queues.Admit(v.index, b.Num, b)
}

// publish publishes a block, once per publishing delay, on the PBFT
// primary.
func (n *Network) publish() {
	if n.env.Nodes >= n.cfg.pendingStallAt {
		return // transactions stay pending, never finalized
	}
	for _, v := range n.validators {
		if !v.engine.IsProposer() {
			continue
		}
		batches := n.queues.Take(v.index, maxBlockBatches)
		if len(batches) == 0 {
			return
		}
		txs := batches[0].Txs // a block of one batch shares its members
		if len(batches) > 1 {
			txs = nil
			for _, b := range batches {
				txs = append(txs, b.Txs...)
			}
		}
		blk := publishedBlock{
			Batches:     batches,
			Txs:         txs,
			PublishedAt: n.env.Clock.Now(),
			Publisher:   v.ID,
		}
		if err := v.engine.Submit(blk); err != nil {
			for _, b := range batches {
				_ = n.queues.Requeue(v.index, b.Num, b)
			}
			return
		}
		for _, tx := range txs {
			tx.Stages.Mark(chain.StageQueue, blk.PublishedAt)
		}
		return
	}
}

// asBlock adapts the PBFT payload to the chassis. A crashed validator's
// gate buffers its blocks and replays them on restart (Sawtooth's
// catch-up).
func asBlock(p any) (systems.Block, bool) {
	blk, ok := p.(publishedBlock)
	return systems.Block{Proposer: blk.Publisher, FormedAt: blk.PublishedAt, Txs: blk.Txs, Batches: blk.Batches}, ok
}

// dropPublished drops a committed block's batches, discarded ones
// included, from validator r's queue.
func (n *Network) dropPublished(r int, b systems.Block) {
	for _, bt := range b.Batches {
		n.queues.Drop(r, bt.Num)
	}
}

// Drained overrides the chassis default: all validator queues are empty.
func (n *Network) Drained() bool { return n.queueBacklog() == 0 }

// queueBacklog is the chassis' admission-depth hook: the batch queue
// backlog summed across validators.
func (n *Network) queueBacklog() int {
	depth := 0
	for _, v := range n.validators {
		depth += n.queues.Len(v.index)
	}
	return depth
}

// QueueStats aggregates admission counters across validators.
func (n *Network) QueueStats() (admitted, rejected uint64) {
	for _, v := range n.validators {
		a, r := n.queues.Stats(v.index)
		admitted += a
		rejected += r
	}
	return admitted, rejected
}

// ConflictCounts overrides the chassis default: payload operations
// lost to the atomic batch discard ("if a transaction fails within a batch,
// the entire batch ... is completely discarded", §5.6). These never produce
// client events, so the runner folds them in system-side.
func (n *Network) ConflictCounts() map[string]uint64 {
	if d := n.DiscardedOps(); d > 0 {
		return map[string]uint64{systems.AbortBatchDiscarded: d}
	}
	return nil
}
