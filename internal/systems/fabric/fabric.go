// Package fabric simulates Hyperledger Fabric 2.2.1 as benchmarked in the
// paper: the execute-order-validate architecture with endorsing peers, an
// external Raft ordering service (3 orderers on servers 1-3, Table 4), block
// cutting governed by MaxMessageCount plus a batch timeout, and MVCC
// read-set validation at commit time.
//
// Behaviours reproduced from the paper:
//   - Every ordered transaction is appended to the chain even when MVCC
//     validation fails; only valid transactions reach the world state (§5.4).
//   - Blocks cut at MaxMessageCount ∈ {100, 500, 1000, 2000} or on timeout.
//   - Under extreme load (RL=1600) orderer ingress queues overflow and
//     transactions are silently lost ("malfunctioning orderers", §5.4).
//   - Clients receive confirmation only after the block is persisted on all
//     peers (end-to-end semantics, §4.5).
package fabric

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/raft"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
)

// Fabric's calibration. The orderer queue bound is high enough that only
// the paper's extreme load (RL=1600) overflows it.
const (
	orderers          = 3   // Raft orderers on servers 1-3 (Table 4)
	defaultMM         = 500 // Fabric's configtx MaxMessageCount
	batchTimeoutSec   = 2   // Fabric's BatchTimeout, paper seconds
	ordererQueueDepth = 20000
	// eventLossAtPeers reproduces the paper's §5.8.2 finding for large
	// networks: with 16 and 32 peers "the nodes and the orderers
	// successfully process and finalise the transactions, but the clients
	// do not receive any confirmation". At or above this peer count, blocks
	// still commit on every peer but no client events fire. The upstream
	// root cause is unknown; this models the observation.
	eventLossAtPeers = 16
)

// config is one Fabric network's calibration: the paper's parameters at an
// Env. Unit tests override a field to isolate one mechanism.
type config struct {
	maxMessageCount  int           // block cut size: MM, ×Scale
	batchTimeout     time.Duration // partial-block cut delay
	ordererQueue     int           // per-orderer ingress bound; overflow drops
	eventLossAtPeers int
}

func calibrate(env systems.Env, p systems.Params) config {
	mm := p.MM
	if mm == 0 {
		mm = defaultMM
	}
	return config{
		maxMessageCount:  env.Count(mm),
		batchTimeout:     env.Paper(batchTimeoutSec),
		ordererQueue:     ordererQueueDepth,
		eventLossAtPeers: eventLossAtPeers,
	}
}

// cutBatch is the Raft payload: a deterministic block precursor. It travels
// by pointer and is not written after the cut, so the ordering service and
// every peer's commit work share the one value.
type cutBatch struct {
	Envelopes []systems.Envelope
	// Txs are the envelopes' transactions in order: the block body every
	// peer seals.
	Txs    []*chain.Transaction
	CutAt  time.Time
	Cutter string
}

// orderer couples a Raft node with a block cutter's bounded ingress queue.
type orderer struct {
	id      string
	node    *raft.Node
	ingress *mempool.Pool[systems.Envelope]
}

// Network is a full Fabric deployment.
type Network struct {
	*systems.LedgerCluster
	env systems.Env
	cfg config

	orderers []*orderer

	cutter  *clock.Event // cutTick, at a fraction of the batch timeout
	lastCut time.Time    // when the cutter last cut or timed out
}

var _ systems.Driver = (*Network)(nil)

// New assembles a Fabric network on env at the paper's parameters p.
func New(env systems.Env, p systems.Params) *Network { return build(env, calibrate(env, p)) }

func build(env systems.Env, cfg config) *Network {
	n := &Network{
		env: env,
		cfg: cfg,
	}
	n.cutter = clock.NewEvent(env.Clock, "fabric/cutter", n.cutTick)
	n.LedgerCluster = systems.NewLedgerCluster(systems.NameFabric, systems.NodeIDs("fabric-peer", env.Nodes),
		env, n.ingressBacklog)
	ordererIDs := systems.NodeIDs("fabric-orderer", orderers)
	// The paper co-locates orderer i on server i (Table 4: orderers on
	// servers 1-3); peers themselves commit via the ordering stream rather
	// than peer-to-peer links, so a server past the last orderer owns no
	// endpoint.
	for i, p := range n.Replicas() {
		if i < orderers {
			p.Endpoints = ordererIDs[i : i+1]
		}
	}
	for i := 0; i < orderers; i++ {
		o := &orderer{
			id:      ordererIDs[i],
			ingress: mempool.NewBounded[systems.Envelope](cfg.ordererQueue),
		}
		o.node = raft.New(raft.Config{
			ID:        o.id,
			Peers:     ordererIDs,
			Transport: n.Transport,
			Clock:     env.Clock,
			OnDecide:  n.makeDecideFunc(i),
			Seed:      int64(i + 1),
		})
		n.orderers = append(n.orderers, o)
	}
	return n
}

// Start implements systems.Driver.
func (n *Network) Start() error {
	if !n.MarkStarted() {
		return nil
	}
	for _, o := range n.orderers {
		if err := o.node.Start(); err != nil {
			return fmt.Errorf("start orderer %s: %w", o.id, err)
		}
	}
	// Poll at a fraction of the batch timeout for responsive cutting, but
	// never slower than 10ms so MaxMessageCount cuts stay prompt even with
	// a long batch timeout.
	interval := n.cfg.batchTimeout / 8
	if interval <= 0 || interval > 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	n.lastCut = n.env.Clock.Now()
	n.cutter.Every(interval)
	return nil
}

// Stop implements systems.Driver.
func (n *Network) Stop() {
	if !n.MarkStopped() {
		return
	}
	n.cutter.Stop()
	for _, o := range n.orderers {
		o.node.Stop()
	}
	n.Transport.Stop()
}

// Submit implements systems.Driver: the entry peer endorses (executes) the
// transaction, then hands the envelope to an orderer. A full orderer queue
// silently drops the envelope — the client never hears back, matching the
// paper's lost transactions under RL=1600.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	i, err := n.Entry(entryNode)
	if err != nil {
		return err // ErrNodeDown: the client's endorsement RPC fails
	}
	env := n.endorse(n.Replicas()[i].State, tx)
	// Execute-order-validate: endorsement is the execution phase, and it
	// happens before the transaction ever reaches the ordering queue.
	tx.Stages.Mark(chain.StageExecute, n.env.Clock.Now())
	o := n.orderers[entryNode%len(n.orderers)]
	// Silent drop on overflow: Fabric's client SDK gets a broadcast ACK
	// before ordering completes, so the loss is invisible end to end.
	if o.ingress.Add(env) == nil {
		tx.Stages.Mark(chain.StageSubmit, n.env.Clock.Now())
	}
	return nil
}

// endorse simulates the chaincode execution phase on the entry peer,
// producing a read-write set against its current world state. A
// transaction none of whose operations touches state shares noRWSet.
func (n *Network) endorse(state *statestore.KVStore, tx *chain.Transaction) systems.Envelope {
	if !touchesState(tx) {
		return systems.Envelope{Tx: tx, RWSet: &noRWSet}
	}
	recorder := &rwRecorder{state: state}
	for _, op := range tx.Ops {
		// Endorsement failures still produce an envelope: Fabric orders
		// whatever was endorsed and settles validity at commit.
		_ = iel.Execute(op, recorder)
	}
	return systems.Envelope{Tx: tx, RWSet: &recorder.rw}
}

// noRWSet is the read-write set of every transaction that reads and writes
// nothing: never written, so validating and committing it do nothing.
var noRWSet statestore.RWSet

// touchesState reports whether any of tx's operations can read or write
// world state; DoNothing's cannot.
func touchesState(tx *chain.Transaction) bool {
	for _, op := range tx.Ops {
		if op.IEL != iel.DoNothingName {
			return true
		}
	}
	return false
}

// rwRecorder adapts RWSet recording to iel.StateOps with
// read-your-own-writes semantics within one endorsement. It holds the set it
// records into, which the envelope then points at: one allocation for both.
type rwRecorder struct {
	rw    statestore.RWSet
	state *statestore.KVStore
}

var _ iel.StateOps = (*rwRecorder)(nil)

func (r *rwRecorder) Get(key statestore.Key) (string, bool) {
	if v, ok := r.rw.Written(key); ok {
		return v, true
	}
	return r.rw.Read(key, r.state)
}

func (r *rwRecorder) Put(key statestore.Key, value string) { r.rw.Write(key, value) }

// cutTick drains orderer ingress queues into blocks, honouring
// MaxMessageCount and BatchTimeout, and submits each cut batch to Raft.
func (n *Network) cutTick() {
	timedOut := n.env.Clock.Since(n.lastCut) >= n.cfg.batchTimeout
	for _, o := range n.orderers {
		for o.ingress.Len() >= n.cfg.maxMessageCount {
			// A failed cut (no Raft leader yet) puts the envelopes back;
			// retrying before the next tick would spin without ever
			// yielding, which under the virtual clock starves the very
			// election the retry is waiting on.
			if !n.cut(o, o.ingress.Take(n.cfg.maxMessageCount)) {
				break
			}
			n.lastCut = n.env.Clock.Now()
		}
		if timedOut {
			if envs := o.ingress.Take(n.cfg.maxMessageCount); len(envs) > 0 {
				n.cut(o, envs)
				n.lastCut = n.env.Clock.Now()
			}
		}
	}
	if timedOut {
		n.lastCut = n.env.Clock.Now()
	}
}

// cut submits one batch to the ordering service, reporting whether it was
// accepted.
func (n *Network) cut(o *orderer, envs []systems.Envelope) bool {
	batch := &cutBatch{Envelopes: envs, Txs: make([]*chain.Transaction, len(envs)), CutAt: n.env.Clock.Now(), Cutter: o.id}
	for i, env := range envs {
		batch.Txs[i] = env.Tx
	}
	// raft.Submit forwards to the leader when this orderer is a follower.
	// Before an election completes there is no leader to forward to; put
	// the envelopes back so the next tick retries.
	if err := o.node.Submit(batch); err != nil {
		for _, env := range envs {
			_ = o.ingress.Add(env)
		}
		return false
	}
	for _, env := range envs {
		env.Tx.Stages.Mark(chain.StageQueue, batch.CutAt)
	}
	return true
}

// makeDecideFunc returns the commit pipeline for orderer i. Only orderer 0's
// decisions drive peer commits — decisions are identical on every orderer,
// so one distribution stream suffices and avoids triple delivery. Every
// peer validates the block (execute-order-validate, §5.4); a crashed peer's
// gate buffers its share until RestartNode replays it.
func (n *Network) makeDecideFunc(i int) consensus.DecideFunc {
	if i != 0 {
		return nil
	}
	return func(d consensus.Decision) {
		if batch, ok := d.Payload.(*cutBatch); ok {
			decided := n.env.Clock.Now()
			// Consensus rounds are sampled on the block number: one span per
			// sampled round, emitted at the single global commit site.
			if tr := n.env.Trace; tr.Sampled(d.Seq) {
				tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameFabric,
					Lane: "consensus", Start: batch.CutAt.UnixNano(), End: decided.UnixNano(), Block: d.Seq})
			}
			for _, tx := range batch.Txs {
				tx.Stages.Mark(chain.StageConsensus, decided)
			}
			// At eventLossAtPeers the block commits on every peer, but the
			// client never hears.
			n.Deliver(systems.Block{Proposer: batch.Cutter, FormedAt: batch.CutAt, Txs: batch.Txs, Envelopes: batch.Envelopes},
				n.env.Nodes < n.cfg.eventLossAtPeers)
		}
	}
}

// ingressBacklog is the chassis' admission-depth hook: the orderers'
// ingress depth.
func (n *Network) ingressBacklog() int {
	depth := 0
	for _, o := range n.orderers {
		depth += o.ingress.Len()
	}
	return depth
}

// OrdererStats reports admitted/rejected envelope counts across orderers.
func (n *Network) OrdererStats() (admitted, rejected uint64) {
	for _, o := range n.orderers {
		a, r := o.ingress.Stats()
		admitted += a
		rejected += r
	}
	return admitted, rejected
}
