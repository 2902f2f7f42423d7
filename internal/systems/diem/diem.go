// Package diem simulates the Diem (formerly Libra) blockchain as benchmarked
// in the paper: DiemBFT consensus with rotating leaders, blocks bounded by
// max_block_size, account sequence numbers enforced at admission, and the
// "spiking" behaviour in which validators temporarily stop validating
// transactions (paper §5.7, citing Balster).
//
// Behaviours reproduced from the paper:
//   - max_block_size ∈ {100, 500, 1000, 2000} bounds the transactions the
//     round leader pulls per proposal (Table 5); varying it "only [has] a
//     minor impact on the overall performance".
//   - A significant number of transactions fail under load: the bounded
//     admission queue rejects while validators spike, so blocks never
//     saturate and throughput decreases as the rate limiter rises.
//   - Empty blocks keep rounds advancing while a leader spikes.
package diem

import (
	"fmt"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/diembft"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Config parameterizes a Diem network.
type Config struct {
	// Validators is the network size (paper: 4).
	Validators int
	// MaxBlockSize is the paper's max_block_size (default 3000 upstream;
	// the paper sweeps {100, 500, 1000, 2000}).
	MaxBlockSize int
	// RoundInterval paces DiemBFT rounds.
	RoundInterval time.Duration
	// MempoolDepth bounds each validator's admission queue.
	MempoolDepth int
	// SpikePeriod is how often a validator enters a validation stall; 0
	// disables spiking.
	SpikePeriod time.Duration
	// SpikeDuration is how long each stall lasts.
	SpikeDuration time.Duration
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
	if c.MaxBlockSize <= 0 {
		c.MaxBlockSize = 3000
	}
	if c.RoundInterval <= 0 {
		c.RoundInterval = 20 * time.Millisecond
	}
	if c.MempoolDepth <= 0 {
		c.MempoolDepth = 2048
	}
	if c.SpikeDuration <= 0 {
		c.SpikeDuration = c.RoundInterval * 4
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// proposedBlock is the DiemBFT payload.
type proposedBlock struct {
	Txs      []*chain.Transaction
	FormedAt time.Time
	Proposer string
}

// validator is one Diem node.
type validator struct {
	id      string
	hubNode *systems.HubNode
	engine  *diembft.Engine
	ledger  *chain.Ledger
	state   *statestore.KVStore
	pool    *mempool.Pool[*chain.Transaction]
	gate    systems.DurableGate

	mu         sync.Mutex
	spikeUntil time.Time
	lastSpike  time.Time
}

// Network is a full Diem deployment.
type Network struct {
	cfg Config

	transport  *network.Transport
	hub        *systems.Hub
	validators []*validator
	sealer     chain.Sealer // one sealed block per decision, shared by the replicas

	mu      sync.Mutex
	running bool
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Diem network.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{
		cfg: cfg,
		hub: systems.NewHub(cfg.Validators),
	}
	n.transport = network.NewTransport(cfg.Clock, cfg.Latency)
	if cfg.Trace != nil {
		n.transport.SetTracer(cfg.Trace, systems.NameDiem)
	}

	names := make([]string, cfg.Validators)
	for i := range names {
		names[i] = fmt.Sprintf("diem-%d", i)
	}
	for i := 0; i < cfg.Validators; i++ {
		v := &validator{
			id:      names[i],
			hubNode: n.hub.Node(names[i]),
			ledger:  chain.NewLedger("diem"),
			state:   statestore.NewKVStore(),
			pool:    mempool.NewBounded[*chain.Transaction](cfg.MempoolDepth),
		}
		v.lastSpike = cfg.Clock.Now()
		if cfg.WAL != nil {
			v.gate.Enable(cfg.Clock, wal.New(names[i], *cfg.WAL, cfg.Clock))
			v.gate.Trace(cfg.Trace, systems.NameDiem, names[i])
		}
		v.engine = diembft.New(diembft.Config{
			ID:            v.id,
			Validators:    names,
			Transport:     n.transport,
			Clock:         cfg.Clock,
			RoundInterval: cfg.RoundInterval,
			OnDecide:      n.makeDecideFunc(v),
			PayloadSource: n.makePayloadSource(v),
		})
		n.validators = append(n.validators, v)
	}
	return n
}

// Name implements systems.Driver.
func (n *Network) Name() string { return systems.NameDiem }

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
		if err := v.engine.Start(); err != nil {
			return fmt.Errorf("start validator %d: %w", i, err)
		}
	}
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
	for _, v := range n.validators {
		v.engine.Stop()
	}
	n.transport.Stop()
}

// Submit implements systems.Driver: admission control checks the bounded
// mempool. Rejections surface to the client, which counts the transaction
// as failed (the paper's dominant Diem loss mode).
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	n.mu.Unlock()

	v := n.validators[entryNode%len(n.validators)]
	if v.gate.Down() {
		return systems.ErrNodeDown // the admission endpoint is unreachable
	}
	if err := v.pool.Add(tx); err != nil {
		return err
	}
	tx.Stages.Mark(chain.StageSubmit, n.cfg.Clock.Now())
	return nil
}

// makePayloadSource pulls up to MaxBlockSize transactions from the leader's
// pool at proposal time — unless the validator is spiking, in which case it
// proposes nothing and the engine emits an empty block.
func (n *Network) makePayloadSource(v *validator) func() any {
	return func() any {
		if n.spiking(v) {
			return nil
		}
		txs := v.pool.Take(n.cfg.MaxBlockSize)
		if len(txs) == 0 {
			return nil
		}
		formed := n.cfg.Clock.Now()
		for _, tx := range txs {
			tx.Stages.Mark(chain.StageQueue, formed)
		}
		return proposedBlock{Txs: txs, FormedAt: formed, Proposer: v.id}
	}
}

// spiking evaluates and advances the validator's spike schedule.
func (n *Network) spiking(v *validator) bool {
	if n.cfg.SpikePeriod <= 0 {
		return false
	}
	now := n.cfg.Clock.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	if now.Before(v.spikeUntil) {
		return true
	}
	if now.Sub(v.lastSpike) >= n.cfg.SpikePeriod {
		v.lastSpike = now
		v.spikeUntil = now.Add(n.cfg.SpikeDuration)
		return true
	}
	return false
}

// makeDecideFunc builds the commit pipeline: execute in order, append to the
// ledger, report per-transaction commits. The pipeline is gated per
// validator: a crashed validator buffers decided blocks and replays them on
// restart (Diem's state sync).
func (n *Network) makeDecideFunc(v *validator) consensus.DecideFunc {
	return func(d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(proposedBlock); ok {
			txs = len(blk.Txs)
		}
		v.gate.Commit(txs, func() { n.applyDecision(v, d) })
	}
}

func (n *Network) applyDecision(v *validator, d consensus.Decision) {
	blk, ok := d.Payload.(proposedBlock)
	if !ok {
		return
	}
	cb := n.sealer.Seal(v.ledger.Head(), blk.Proposer, blk.FormedAt, blk.Txs)
	if err := v.ledger.Append(cb); err != nil {
		return
	}
	now := n.cfg.Clock.Now()
	// One consensus-round span per sampled block, emitted at validator 0's
	// apply site only (every validator applies the identical decision).
	if tr := n.cfg.Trace; v == n.validators[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameDiem,
			Lane: "consensus", Start: blk.FormedAt.UnixNano(), End: now.UnixNano(), Block: cb.Number})
	}
	for txNum, tx := range blk.Txs {
		tx.Stages.Mark(chain.StageConsensus, now)
		execErr := executeTx(tx, v.state, cb.Number, txNum)
		tx.Stages.Mark(chain.StageExecute, n.cfg.Clock.Now())
		ev := systems.Event{
			TxID:      tx.ID,
			Client:    tx.Client,
			Committed: true,
			ValidOK:   execErr == nil,
			OpCount:   tx.OpCount(),
			BlockNum:  cb.Number,
			Stages:    &tx.Stages,
		}
		if execErr != nil {
			ev.Reason = execErr.Error()
			ev.Code = systems.ClassifyAbort(execErr)
		}
		v.hubNode.Committed(ev, now)
	}
}

// Preload implements systems.Preloader: operations are applied directly to
// every validator's world state at version 0, materializing shared key
// spaces and account pools before contention load starts.
func (n *Network) Preload(ops []chain.Operation) error {
	for _, v := range n.validators {
		for i, op := range ops {
			a := &kvAdapter{state: v.state, ver: statestore.Version{TxNum: i}}
			if err := iel.Execute(op, a); err != nil {
				return fmt.Errorf("diem preload op %d: %w", i, err)
			}
		}
	}
	return nil
}

// CrashNode implements systems.Driver: the validator's commit plane stops
// and its admission endpoint rejects transactions; decided blocks buffer.
func (n *Network) CrashNode(node int) error {
	if node < 0 || node >= len(n.validators) {
		return fmt.Errorf("%w: validator %d of %d", systems.ErrNodeDown, node, len(n.validators))
	}
	n.validators[node].gate.Crash()
	return nil
}

// RestartNode implements systems.Driver: the validator replays the blocks
// it missed in decision order (Diem's state sync) and resumes.
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

// NodeEndpoints maps validator i to its transport endpoint.
func (n *Network) NodeEndpoints(node int) []string {
	if node < 0 || node >= len(n.validators) {
		return nil
	}
	return []string{n.validators[node].id}
}

// LedgerHead returns validator i's chain head hash (for convergence
// checks).
func (n *Network) LedgerHead(i int) crypto.Hash {
	return n.validators[i%len(n.validators)].ledger.Head().Hash
}

func executeTx(tx *chain.Transaction, st *statestore.KVStore, blockNum uint64, txNum int) error {
	a := &kvAdapter{state: st, ver: statestore.Version{BlockNum: blockNum, TxNum: txNum}}
	for _, op := range tx.Ops {
		if err := iel.Execute(op, a); err != nil {
			return err
		}
	}
	return nil
}

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

// Drained implements systems.Quiescer: every validator mempool is empty.
func (n *Network) Drained() bool {
	for _, v := range n.validators {
		if v.pool.Len() > 0 {
			return false
		}
	}
	return true
}

// QueueSnapshot implements systems.QueueReporter: hub in-flight, mempool
// backlog summed across validators, and gate/WAL occupancy.
func (n *Network) QueueSnapshot() systems.QueueStats {
	qs := systems.QueueStats{
		HubInflight: n.hub.PendingCount(),
		NetPending:  n.transport.PendingCount(),
	}
	for _, v := range n.validators {
		qs.MempoolDepth += v.pool.Len()
		qs.GateBacklog += v.gate.Backlog()
		if log := v.gate.WAL(); log != nil {
			qs.WALLiveBytes += int64(log.Stats().LiveBytes)
			qs.WALUnsynced += log.UnsyncedRecords()
		}
	}
	return qs
}

// PoolStats aggregates admission counters across validators.
func (n *Network) PoolStats() (admitted, rejected uint64) {
	for _, v := range n.validators {
		a, r := v.pool.Stats()
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
