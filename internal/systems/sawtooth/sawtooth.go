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
	"sync"
	"sync/atomic"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/pbft"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Config parameterizes a Sawtooth network.
type Config struct {
	// Validators is the network size (paper: 4).
	Validators int
	// BlockPublishingDelay paces block creation (paper default 1s).
	BlockPublishingDelay time.Duration
	// QueueDepth bounds each validator's batch admission queue; overflow
	// rejects the batch back to the client.
	QueueDepth int
	// MaxBlockBatches caps batches per block.
	MaxBlockBatches int
	// PendingStallAtValidators, when positive, reproduces the paper's
	// §5.8.2 finding for large networks: with 16 and 32 validators "all
	// transactions remain in the pending state without being finalized".
	// At or above this validator count, the primary stops publishing
	// blocks. The upstream root cause is unknown; this models the
	// observation.
	PendingStallAtValidators int
	// Latency models the per-hop delay of the network's private transport;
	// nil means zero latency.
	Latency network.LatencyModel
	// Clock drives timers.
	Clock clock.Clock
	// WAL, when set, mounts a write-ahead log on every validator's commit
	// gate (see systems.DurableGate).
	WAL *wal.Options
	// Trace, when set, receives sampled spans: consensus rounds, WAL
	// appends/fsyncs, and (on a private transport) network hops.
	Trace *trace.Tracer
}

func (c *Config) fill() {
	if c.Validators <= 0 {
		c.Validators = 4
	}
	if c.BlockPublishingDelay <= 0 {
		c.BlockPublishingDelay = time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBlockBatches <= 0 {
		c.MaxBlockBatches = 100
	}
	if c.Clock == nil {
		c.Clock = clock.New()
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
	id      string
	gossip  string // the tx-gossip endpoint beside the engine's: id + "-gossip"
	hubNode *systems.HubNode
	engine  *pbft.Engine
	ledger  *chain.Ledger
	state   *statestore.KVStore
	queue   *mempool.Pool[*chain.Batch]
	gate    systems.DurableGate

	mu   sync.Mutex
	seen map[crypto.Hash]bool
}

// Network is a full Sawtooth deployment.
type Network struct {
	cfg Config

	transport  *network.Transport
	hub        *systems.Hub
	validators []*validator
	sealer     chain.Sealer // one sealed block per decision, shared by the replicas

	mu      sync.Mutex
	running bool
	stop    *clock.Gate
	done    *clock.Gate

	// discardedOps counts payload operations lost to atomic batch discard
	// (counted once per decision, on validator 0's identical replay).
	discardedOps atomic.Uint64
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Sawtooth network.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{
		cfg:  cfg,
		hub:  systems.NewHub(cfg.Validators),
		stop: clock.NewGate(cfg.Clock),
		done: clock.NewGate(cfg.Clock),
	}
	n.transport = network.NewTransport(cfg.Clock, cfg.Latency)
	if cfg.Trace != nil {
		n.transport.SetTracer(cfg.Trace, systems.NameSawtooth)
	}

	names := make([]string, cfg.Validators)
	for i := range names {
		names[i] = fmt.Sprintf("sawtooth-%d", i)
	}
	for i := 0; i < cfg.Validators; i++ {
		v := &validator{
			id:      names[i],
			gossip:  names[i] + "-gossip",
			hubNode: n.hub.Node(names[i]),
			ledger:  chain.NewLedger("sawtooth"),
			state:   statestore.NewKVStore(),
			queue:   mempool.NewBounded[*chain.Batch](cfg.QueueDepth),
			seen:    make(map[crypto.Hash]bool),
		}
		if cfg.WAL != nil {
			v.gate.Enable(cfg.Clock, wal.New(names[i], *cfg.WAL, cfg.Clock))
			v.gate.Trace(cfg.Trace, systems.NameSawtooth, names[i])
		}
		v.engine = pbft.New(pbft.Config{
			ID:        v.id,
			Replicas:  names,
			Transport: n.transport,
			Clock:     cfg.Clock,
			OnDecide:  n.makeDecideFunc(v),
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

// Name implements systems.Driver.
func (n *Network) Name() string { return systems.NameSawtooth }

// NodeCount implements systems.Driver.
func (n *Network) NodeCount() int { return n.cfg.Validators }

// Subscribe implements systems.Driver.
func (n *Network) Subscribe(client string, fn systems.EventFunc) { n.hub.Subscribe(client, fn) }

// Start implements systems.Driver.
func (n *Network) Start() error {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return nil
	}
	n.running = true
	n.mu.Unlock()

	for i, v := range n.validators {
		v := v
		n.transport.Register(v.gossip, func(m network.Message) {
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
	clock.Fork(n.cfg.Clock, 1)
	go n.publishLoop()
	return nil
}

// Stop implements systems.Driver.
func (n *Network) Stop() {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	n.mu.Unlock()
	n.stop.Close()
	clock.Await(n.cfg.Clock, n.done)
	for _, v := range n.validators {
		v.engine.Stop()
		n.transport.Unregister(v.gossip)
	}
	n.transport.Stop()
}

// Submit implements systems.Driver for single transactions: it wraps the
// transaction in a one-element batch. Use SubmitBatch for multi-transaction
// atomic batches.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	return n.SubmitBatch(entryNode, chain.NewBatch(tx))
}

// SubmitBatch admits an atomic batch at the entry validator. A full queue
// rejects with mempool.ErrQueueFull; the caller must re-send (or, as the
// paper's clients do, count the batch as lost).
func (n *Network) SubmitBatch(entryNode int, b *chain.Batch) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	n.mu.Unlock()

	v := n.validators[entryNode%len(n.validators)]
	if v.gate.Down() {
		return systems.ErrNodeDown // the client's REST endpoint is unreachable
	}
	v.mu.Lock()
	if v.seen[b.ID] {
		v.mu.Unlock()
		return nil
	}
	v.mu.Unlock()
	if err := v.queue.Add(b); err != nil {
		return err // backpressure: rejected, client must re-send
	}
	admitted := n.cfg.Clock.Now()
	for _, tx := range b.Txs {
		tx.Stages.Mark(chain.StageSubmit, admitted)
	}
	v.mu.Lock()
	v.seen[b.ID] = true
	v.mu.Unlock()
	// Gossip to the other validators so the PBFT primary can publish it.
	for _, other := range n.validators {
		if other == v {
			continue
		}
		_ = n.transport.Send(v.gossip, other.gossip, "sawtooth.batch", b)
	}
	return nil
}

// admitGossip adds gossiped batches without backpressure errors (peer
// validators drop silently on overflow, as the real gossip layer does).
func (n *Network) admitGossip(v *validator, b *chain.Batch) {
	v.mu.Lock()
	if v.seen[b.ID] {
		v.mu.Unlock()
		return
	}
	v.seen[b.ID] = true
	v.mu.Unlock()
	_ = v.queue.Add(b)
}

// publishLoop publishes a block every BlockPublishingDelay on the PBFT
// primary.
func (n *Network) publishLoop() {
	h := clock.RegisterForked(n.cfg.Clock, "sawtooth/publisher")
	defer h.Close()
	defer n.done.Close()
	tick := n.cfg.Clock.NewTicker(n.cfg.BlockPublishingDelay)
	defer tick.Stop()
	for {
		switch i, _, _ := clock.Await(n.cfg.Clock, n.stop, tick); i {
		case 0:
			return
		case 1:
			if n.cfg.PendingStallAtValidators > 0 &&
				n.cfg.Validators >= n.cfg.PendingStallAtValidators {
				continue // transactions stay pending, never finalized
			}
			for _, v := range n.validators {
				if !v.engine.IsPrimary() {
					continue
				}
				batches := v.queue.Take(n.cfg.MaxBlockBatches)
				if len(batches) == 0 {
					break
				}
				blk := publishedBlock{
					Batches:     batches,
					PublishedAt: n.cfg.Clock.Now(),
					Publisher:   v.id,
				}
				if err := v.engine.Submit(blk); err != nil {
					for _, b := range batches {
						_ = v.queue.Add(b)
					}
					break
				}
				for _, b := range batches {
					for _, tx := range b.Txs {
						tx.Stages.Mark(chain.StageQueue, blk.PublishedAt)
					}
				}
				break
			}
		}
	}
}

// makeDecideFunc builds the commit pipeline for one validator: batches
// execute atomically; a failing batch is discarded entirely and its
// transactions produce no events (lost end to end). The pipeline is gated
// per validator: a crashed validator buffers decided blocks and replays
// them on restart (Sawtooth's catch-up).
func (n *Network) makeDecideFunc(v *validator) consensus.DecideFunc {
	return func(d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(publishedBlock); ok {
			for _, b := range blk.Batches {
				txs += len(b.Txs)
			}
		}
		v.gate.Commit(txs, func() { n.applyDecision(v, d) })
	}
}

func (n *Network) applyDecision(v *validator, d consensus.Decision) {
	blk, ok := d.Payload.(publishedBlock)
	if !ok {
		return
	}
	decided := n.cfg.Clock.Now()
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
		if batchExecutes(b, v.state) {
			surviving = append(surviving, b.Txs...)
			survivingBatches = append(survivingBatches, b)
		} else if v == n.validators[0] {
			// Every validator discards the same batches; count the lost
			// payloads once for the conflict breakdown.
			for _, tx := range b.Txs {
				n.discardedOps.Add(uint64(tx.OpCount()))
			}
		}
	}
	cb := n.sealer.Seal(v.ledger.Head(), blk.Publisher, blk.PublishedAt, surviving)
	if err := v.ledger.Append(cb); err != nil {
		return
	}
	// One consensus-round span per sampled block, emitted at validator 0's
	// apply site only (every validator applies the identical decision).
	if tr := n.cfg.Trace; v == n.validators[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameSawtooth,
			Lane: "consensus", Start: blk.PublishedAt.UnixNano(), End: decided.UnixNano(), Block: cb.Number})
	}
	now := n.cfg.Clock.Now()
	for txNum, batch := range survivingBatches {
		for _, tx := range batch.Txs {
			applyTx(tx, v.state, cb.Number, txNum)
			tx.Stages.Mark(chain.StageExecute, n.cfg.Clock.Now())
			v.hubNode.Committed(systems.Event{
				TxID:      tx.ID,
				Client:    tx.Client,
				Committed: true,
				ValidOK:   true,
				OpCount:   tx.OpCount(),
				BlockNum:  cb.Number,
				Stages:    &tx.Stages,
			}, now)
		}
	}
	n.scrubQueue(v, blk.Batches)
}

// batchExecutes dry-runs a batch against a copy-on-read overlay of the
// state and reports whether every member transaction succeeds.
func batchExecutes(b *chain.Batch, st *statestore.KVStore) bool {
	overlay := &overlayState{base: st, writes: make(map[string]string)}
	for _, tx := range b.Txs {
		for _, op := range tx.Ops {
			if err := iel.Execute(op, overlay); err != nil {
				return false
			}
		}
	}
	return true
}

// applyTx commits a transaction's writes to the world state.
func applyTx(tx *chain.Transaction, st *statestore.KVStore, blockNum uint64, txNum int) {
	a := &kvAdapter{state: st, ver: statestore.Version{BlockNum: blockNum, TxNum: txNum}}
	for _, op := range tx.Ops {
		_ = iel.Execute(op, a)
	}
}

// scrubQueue removes published batches from a validator's queue.
func (n *Network) scrubQueue(v *validator, published []*chain.Batch) {
	ids := make(map[crypto.Hash]bool, len(published))
	for _, b := range published {
		ids[b.ID] = true
	}
	v.queue.Remove(func(b *chain.Batch) bool { return ids[b.ID] })
}

// overlayState reads through to the base store but keeps writes local.
type overlayState struct {
	base   *statestore.KVStore
	writes map[string]string
}

var _ iel.StateOps = (*overlayState)(nil)

func (o *overlayState) Get(key string) (string, bool) {
	if v, ok := o.writes[key]; ok {
		return v, true
	}
	v, ok := o.base.Get(key)
	return v.Value, ok
}

func (o *overlayState) Put(key, value string) { o.writes[key] = value }

// kvAdapter adapts KVStore to iel.StateOps at a fixed version.
type kvAdapter struct {
	state *statestore.KVStore
	ver   statestore.Version
}

var _ iel.StateOps = (*kvAdapter)(nil)

func (a *kvAdapter) Get(key string) (string, bool) {
	v, ok := a.state.Get(key)
	return v.Value, ok
}

func (a *kvAdapter) Put(key, value string) { a.state.Set(key, value, a.ver) }

// CrashNode implements systems.Driver: the validator's commit plane stops
// and its REST endpoint rejects batches; decided blocks buffer.
func (n *Network) CrashNode(node int) error {
	if node < 0 || node >= len(n.validators) {
		return fmt.Errorf("%w: validator %d of %d", systems.ErrNodeDown, node, len(n.validators))
	}
	n.validators[node].gate.Crash()
	return nil
}

// RestartNode implements systems.Driver: the validator replays the blocks
// it missed in decision order (Sawtooth's catch-up) and resumes.
func (n *Network) RestartNode(node int) error {
	if node < 0 || node >= len(n.validators) {
		return fmt.Errorf("%w: validator %d of %d", systems.ErrNodeDown, node, len(n.validators))
	}
	n.validators[node].gate.Restart()
	return nil
}

// FaultTransport exposes the shared fabric for link-level fault injection.
func (n *Network) FaultTransport() *network.Transport { return n.transport }

// NodeWAL implements faults.WALAccessor: validator i's write-ahead log, or
// nil when durability is disabled.
func (n *Network) NodeWAL(node int) *wal.Log {
	if node < 0 || node >= len(n.validators) {
		return nil
	}
	return n.validators[node].gate.WAL()
}

// RecoveryStats implements systems.RecoveryReporter: the durability plane's
// counters summed across validators.
func (n *Network) RecoveryStats() (systems.RecoveryStats, bool) {
	var rs systems.RecoveryStats
	for i := range n.validators {
		rs = rs.Add(n.validators[i].gate.Stats())
	}
	return rs, n.cfg.WAL != nil
}

// NodeEndpoints maps validator i to its transport endpoints (PBFT plus
// batch gossip).
func (n *Network) NodeEndpoints(node int) []string {
	if node < 0 || node >= len(n.validators) {
		return nil
	}
	v := n.validators[node]
	return []string{v.id, v.gossip}
}

// LedgerHead returns validator i's chain head hash (for convergence
// checks).
func (n *Network) LedgerHead(i int) crypto.Hash {
	return n.validators[i%len(n.validators)].ledger.Head().Hash
}

// Drained implements systems.Quiescer: all validator queues are empty.
func (n *Network) Drained() bool {
	for _, v := range n.validators {
		if v.queue.Len() > 0 {
			return false
		}
	}
	return true
}

// QueueSnapshot implements systems.QueueReporter: hub in-flight, batch
// queue backlog summed across validators, and gate/WAL occupancy.
func (n *Network) QueueSnapshot() systems.QueueStats {
	qs := systems.QueueStats{
		HubInflight: n.hub.PendingCount(),
		NetPending:  n.transport.PendingCount(),
	}
	for _, v := range n.validators {
		qs.MempoolDepth += v.queue.Len()
		qs.GateBacklog += v.gate.Backlog()
		if log := v.gate.WAL(); log != nil {
			qs.WALLiveBytes += int64(log.Stats().LiveBytes)
			qs.WALUnsynced += log.UnsyncedRecords()
		}
	}
	return qs
}

// QueueStats aggregates admission counters across validators.
func (n *Network) QueueStats() (admitted, rejected uint64) {
	for _, v := range n.validators {
		a, r := v.queue.Stats()
		admitted += a
		rejected += r
	}
	return admitted, rejected
}

// ChainHeight reports validator 0's block height.
func (n *Network) ChainHeight() uint64 { return n.validators[0].ledger.Height() }

// WorldState exposes validator i's state.
func (n *Network) WorldState(i int) *statestore.KVStore {
	return n.validators[i%len(n.validators)].state
}

// Preload implements systems.Preloader: operations are applied directly to
// every validator's world state at version 0, materializing shared key
// spaces and account pools before contention load starts.
func (n *Network) Preload(ops []chain.Operation) error {
	for _, v := range n.validators {
		for i, op := range ops {
			a := &kvAdapter{state: v.state, ver: statestore.Version{TxNum: i}}
			if err := iel.Execute(op, a); err != nil {
				return fmt.Errorf("sawtooth preload op %d: %w", i, err)
			}
		}
	}
	return nil
}

// ConflictCounts implements systems.ConflictReporter: payload operations
// lost to the atomic batch discard ("if a transaction fails within a batch,
// the entire batch ... is completely discarded", §5.6). These never produce
// client events, so the runner folds them in system-side.
func (n *Network) ConflictCounts() map[string]uint64 {
	if d := n.discardedOps.Load(); d > 0 {
		return map[string]uint64{systems.AbortBatchDiscarded: d}
	}
	return nil
}
