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
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
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
	PublishedAt time.Time
	Publisher   string
}

// validator is one Sawtooth node.
type validator struct {
	systems.Replica
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

	// discardedOps counts payload operations lost to atomic batch discard
	// (counted once per decision, on validator 0's identical replay).
	discardedOps uint64
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
	for i, r := range n.Replicas() {
		v := &validator{
			Replica: r,
			index:   i,
			gossip:  names[i] + "-gossip",
		}
		v.port = n.Transport.Port(v.gossip)
		v.Endpoints = []string{v.ID, v.gossip} // PBFT plus batch gossip
		v.engine = bftcore.New(bftcore.Config{
			ID:        v.ID,
			Peers:     names,
			Transport: n.Transport,
			Clock:     env.Clock,
			OnDecide:  n.makeDecideFunc(v),
			Proposer:  bftcore.StickyPrimary, // the primary rotates on view change only
			MsgPrefix: "pbft",
			Digest: func(p any) crypto.Hash {
				blk, ok := p.(publishedBlock)
				if !ok {
					return crypto.SumString(fmt.Sprintf("%v", p))
				}
				h := crypto.AcquireHasher()
				for _, b := range blk.Batches {
					h.AppendLeaf(b.ID)
				}
				root := h.MerkleRoot()
				h.Reset()
				h.WriteHash(root)
				h.WriteString(blk.Publisher)
				h.WriteUint64(uint64(blk.PublishedAt.UnixNano()))
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
		blk := publishedBlock{
			Batches:     batches,
			PublishedAt: n.env.Clock.Now(),
			Publisher:   v.ID,
		}
		if err := v.engine.Submit(blk); err != nil {
			for _, b := range batches {
				_ = n.queues.Requeue(v.index, b.Num, b)
			}
			return
		}
		for _, b := range batches {
			for _, tx := range b.Txs {
				tx.Stages.Mark(chain.StageQueue, blk.PublishedAt)
			}
		}
		return
	}
}

// makeDecideFunc builds the commit pipeline for one validator: batches
// execute atomically; a failing batch is discarded entirely and its
// transactions produce no events (lost end to end). The pipeline is gated
// per validator: a crashed validator buffers decided blocks and replays
// them on restart (Sawtooth's catch-up).
func (n *Network) makeDecideFunc(v *validator) consensus.DecideFunc {
	apply := func(d consensus.Decision) { n.applyDecision(v, d) }
	return func(d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(publishedBlock); ok {
			for _, b := range blk.Batches {
				txs += len(b.Txs)
			}
		}
		systems.CommitTo(&v.Gate, txs, d, apply)
	}
}

func (n *Network) applyDecision(v *validator, d consensus.Decision) {
	blk, ok := d.Payload.(publishedBlock)
	if !ok {
		return
	}
	decided := n.env.Clock.Now()
	for _, b := range blk.Batches {
		for _, tx := range b.Txs {
			tx.Stages.Mark(chain.StageConsensus, decided)
		}
	}
	// Dry-run each batch against a shadow to enforce atomicity, then
	// apply the survivors.
	var surviving []*chain.Transaction
	var survivingBatches []*chain.Batch
	for _, b := range blk.Batches {
		if v.DryRun(b.Txs...) {
			surviving = append(surviving, b.Txs...)
			survivingBatches = append(survivingBatches, b)
		} else if v == n.validators[0] {
			// Every validator discards the same batches; count the lost
			// payloads once for the conflict breakdown.
			for _, tx := range b.Txs {
				n.discardedOps += uint64(tx.OpCount())
			}
		}
	}
	cb := n.Sealer.Seal(v.Ledger.Head(), blk.Publisher, blk.PublishedAt, surviving)
	if err := v.Ledger.Append(cb); err != nil {
		return
	}
	// One consensus-round span per sampled block, emitted at validator 0's
	// apply site only (every validator applies the identical decision).
	if tr := n.env.Trace; v == n.validators[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameSawtooth,
			Lane: "consensus", Start: blk.PublishedAt.UnixNano(), End: decided.UnixNano(), Block: cb.Number})
	}
	now := n.env.Clock.Now()
	for txNum, batch := range survivingBatches {
		for _, tx := range batch.Txs {
			v.ApplyTx(tx, cb.Number, txNum)
			tx.Stages.Mark(chain.StageExecute, n.env.Clock.Now())
			v.Hub.Committed(systems.Event{
				TxID:      tx.ID,
				Num:       tx.Num,
				Client:    tx.Client,
				Committed: true,
				ValidOK:   true,
				OpCount:   tx.OpCount(),
				BlockNum:  cb.Number,
				Stages:    &tx.Stages,
			}, now)
		}
	}
	// Drop the published batches from the local queue.
	for _, b := range blk.Batches {
		n.queues.Drop(v.index, b.Num)
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
	if n.discardedOps > 0 {
		return map[string]uint64{systems.AbortBatchDiscarded: n.discardedOps}
	}
	return nil
}
