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
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/consensus/diembft"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/systems"
)

// Diem's calibration. Diem is validation-limited: rounds run at a
// real-time cadence and the validators spend most of the benchmark in the
// "spiking" stalls the paper cites from Balster (§5.7).
const (
	defaultBS     = 3000 // upstream max_block_size
	minBlockSize  = 6    // floor under the scaled max_block_size
	roundInterval = 150 * time.Millisecond
	mempoolDepth  = 48
	spikePeriod   = time.Second
	spikeDuration = 650 * time.Millisecond
)

// config is one Diem network's calibration: the paper's parameters at an
// Env. Unit tests override a field to isolate one mechanism.
type config struct {
	maxBlockSize  int           // max_block_size, ×Scale
	roundInterval time.Duration // DiemBFT round pacing
	mempoolDepth  int           // per-validator admission bound
	// A validator stalls for spikeDuration every spikePeriod; a zero
	// spikePeriod disables spiking.
	spikePeriod   time.Duration
	spikeDuration time.Duration
}

func calibrate(env systems.Env, p systems.Params) config {
	bs := p.BS
	if bs == 0 {
		bs = defaultBS
	}
	return config{
		maxBlockSize:  max(env.Count(bs), minBlockSize),
		roundInterval: roundInterval,
		mempoolDepth:  mempoolDepth,
		spikePeriod:   spikePeriod,
		spikeDuration: spikeDuration,
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
	*systems.Node
	engine *diembft.Engine
	pool   *mempool.Pool[*chain.Transaction]

	spikeUntil time.Time
	lastSpike  time.Time
}

// Network is a full Diem deployment.
type Network struct {
	*systems.LedgerCluster
	env systems.Env
	cfg config

	validators []*validator
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Diem network on env at the paper's parameters p.
func New(env systems.Env, p systems.Params) *Network { return build(env, calibrate(env, p)) }

func build(env systems.Env, cfg config) *Network {
	n := &Network{env: env, cfg: cfg}
	names := systems.NodeIDs("diem", env.Nodes)
	n.LedgerCluster = systems.NewLedgerCluster(systems.NameDiem, names, env, n.poolBacklog)
	for i := range names {
		v := &validator{
			Node:      n.Node(i),
			pool:      mempool.NewBounded[*chain.Transaction](cfg.mempoolDepth),
			lastSpike: env.Clock.Now(),
		}
		v.Endpoints = []string{v.ID}
		v.engine = diembft.New(diembft.Config{
			ID:            v.ID,
			Validators:    names,
			Transport:     n.Transport,
			Clock:         env.Clock,
			RoundInterval: cfg.roundInterval,
			OnDecide:      n.Decide(i, systems.OrderExecute, asBlock, nil),
			PayloadSource: n.makePayloadSource(v),
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
		if err := v.engine.Start(); err != nil {
			return fmt.Errorf("start validator %d: %w", i, err)
		}
	}
	return nil
}

// Stop implements systems.Driver.
func (n *Network) Stop() {
	if !n.MarkStopped() {
		return
	}
	for _, v := range n.validators {
		v.engine.Stop()
	}
	n.Transport.Stop()
}

// Submit implements systems.Driver: admission control checks the bounded
// mempool. Rejections surface to the client, which counts the transaction
// as failed (the paper's dominant Diem loss mode).
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	i, err := n.Entry(entryNode)
	if err != nil {
		return err
	}
	v := n.validators[i]
	if err := v.pool.Add(tx); err != nil {
		return err
	}
	tx.Stages.Mark(chain.StageSubmit, n.env.Clock.Now())
	return nil
}

// makePayloadSource pulls up to max_block_size transactions from the leader's
// pool at proposal time — unless the validator is spiking, in which case it
// proposes nothing and the engine emits an empty block.
func (n *Network) makePayloadSource(v *validator) func() any {
	return func() any {
		if n.spiking(v) {
			return nil
		}
		txs := v.pool.Take(n.cfg.maxBlockSize)
		if len(txs) == 0 {
			return nil
		}
		formed := n.env.Clock.Now()
		for _, tx := range txs {
			tx.Stages.Mark(chain.StageQueue, formed)
		}
		return proposedBlock{Txs: txs, FormedAt: formed, Proposer: v.ID}
	}
}

// spiking evaluates and advances the validator's spike schedule.
func (n *Network) spiking(v *validator) bool {
	if n.cfg.spikePeriod <= 0 {
		return false
	}
	now := n.env.Clock.Now()
	if now.Before(v.spikeUntil) {
		return true
	}
	if now.Sub(v.lastSpike) >= n.cfg.spikePeriod {
		v.lastSpike = now
		v.spikeUntil = now.Add(n.cfg.spikeDuration)
		return true
	}
	return false
}

// asBlock adapts the DiemBFT payload to the chassis. Each validator
// executes the decided block in order; a crashed one's gate buffers its
// blocks and replays them on restart (Diem's state sync).
func asBlock(p any) (systems.Block, bool) {
	blk, ok := p.(proposedBlock)
	return systems.Block{Proposer: blk.Proposer, FormedAt: blk.FormedAt, Txs: blk.Txs}, ok
}

// Drained overrides the chassis default: every validator mempool is empty.
func (n *Network) Drained() bool { return n.poolBacklog() == 0 }

// poolBacklog is the chassis' admission-depth hook: the mempool backlog
// summed across validators.
func (n *Network) poolBacklog() int {
	depth := 0
	for _, v := range n.validators {
		depth += v.pool.Len()
	}
	return depth
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
