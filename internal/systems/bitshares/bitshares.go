// Package bitshares simulates BitShares (Graphene) as benchmarked in the
// paper: Delegated Proof-of-Stake block production on a witness schedule,
// multi-operation transactions, and atomic all-or-nothing transaction
// semantics.
//
// Behaviours reproduced from the paper:
//   - block_interval ∈ {1, 2, 5, 10}s paces block production (Table 6);
//     finalization latency tracks the interval (§5.3).
//   - Transactions carry 1, 50, or 100 operations; each operation counts as
//     one transaction for MTPS (§4.5).
//   - "BitShares does not include interacting operations or transactions in
//     a block" (§5.3): a transaction whose operations touch state keys
//     already touched by an earlier transaction in the forming block is
//     excluded and permanently lost — the source of the SendPayment
//     collapse.
//   - Atomicity: "if an operation fails, the whole transaction is
//     discarded" (§5.3).
//   - Topology: 4 nodes, n-1 = 3 witnesses (Table 4).
package bitshares

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/dpos"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
)

// BitShares' calibration.
const (
	defaultBI = 5 // upstream block_interval, paper seconds
	// minConflictWindow keeps the exclusion window at two transactions or
	// more at low rate limiters.
	minConflictWindow = 2
	maxBlockTxs       = 8192 // transactions per block
)

// config is one BitShares network's calibration: the paper's parameters at
// an Env. Unit tests override a field to isolate one mechanism.
type config struct {
	blockInterval time.Duration // block_interval, ×Scale
	// conflictWindow sizes the interacting-operation exclusion window in
	// recently included transactions. The paper's exclusion is per forming
	// block (§5.3); under time scaling a block holds proportionally fewer
	// transactions, so the window holds one paper block interval's worth
	// of transactions (RL payloads/s × BI seconds / ops per transaction) to
	// keep the paper's conflict-collision ratio. 0 restricts exclusion to
	// the current block only.
	conflictWindow int
}

func calibrate(env systems.Env, p systems.Params) config {
	bi := p.BI
	if bi == 0 {
		bi = defaultBI
	}
	return config{
		blockInterval:  env.Paper(float64(bi)),
		conflictWindow: max(p.RL*bi/max(p.Actions, 1), minConflictWindow),
	}
}

// node is one BitShares node (witness or observer).
type node struct {
	systems.Replica
	engine *dpos.Engine
}

// Network is a full BitShares deployment.
type Network struct {
	*systems.LedgerCluster
	env systems.Env
	cfg config

	nodes []*node

	excluded      uint64 // transactions dropped by conflict exclusion
	excludedOps   uint64 // payload operations those transactions carried
	execFailedOps uint64 // payload operations discarded by atomic execution failure

	// Sliding conflict window over the most recent conflictWindow
	// included transactions: windowKeys[windowHead:] holds each one's
	// written keys, oldest first, and windowRefs counts per key how many of
	// them wrote it, so membership is one lookup.
	windowKeys   [][]statestore.Key
	windowHead   int
	windowRefs   map[statestore.Key]int
	blockTouched map[statestore.Key]bool // scratch of one conflictFilter call
	spareKeys    []statestore.Key        // backing array recycled from the window
}

var _ systems.Driver = (*Network)(nil)

// New assembles a BitShares network on env at the paper's parameters p.
func New(env systems.Env, p systems.Params) *Network { return build(env, calibrate(env, p)) }

func build(env systems.Env, cfg config) *Network {
	n := &Network{
		env:          env,
		cfg:          cfg,
		windowRefs:   make(map[statestore.Key]int),
		blockTouched: make(map[statestore.Key]bool),
	}
	names := systems.NodeIDs("bitshares", env.Nodes)
	n.LedgerCluster = systems.NewLedgerCluster(systems.NameBitShares, names, env, n.pendingBacklog)

	// Topology: all but the last node are witnesses (Table 4), at least one.
	witnessCount := max(env.Nodes-1, 1)
	witnesses, observers := names[:witnessCount], names[witnessCount:]

	cfgs := make([]dpos.Config, env.Nodes)
	for i, r := range n.Replicas() {
		nd := &node{Replica: r}
		nd.Endpoints = []string{nd.ID}
		cfgs[i] = dpos.Config{
			ID:            nd.ID,
			Witnesses:     witnesses,
			Observers:     observers,
			Transport:     n.Transport,
			Clock:         env.Clock,
			BlockInterval: cfg.blockInterval,
			MaxBlockItems: maxBlockTxs,
			ShuffleSeed:   env.Seed,
			PackFilter:    n.conflictFilter,
			OnDecide:      n.makeDecideFunc(nd),
		}
		n.nodes = append(n.nodes, nd)
	}
	for i, e := range dpos.NewNetwork(cfgs) {
		n.nodes[i].engine = e
	}
	return n
}

// Start implements systems.Driver.
func (n *Network) Start() error {
	if !n.MarkStarted() {
		return nil
	}
	for i, nd := range n.nodes {
		if err := nd.engine.Start(); err != nil {
			return fmt.Errorf("start node %d: %w", i, err)
		}
	}
	return nil
}

// Stop implements systems.Driver.
func (n *Network) Stop() {
	if !n.MarkStopped() {
		return
	}
	for _, nd := range n.nodes {
		nd.engine.Stop()
	}
	n.Transport.Stop()
}

// Submit implements systems.Driver: the transaction is gossiped to all
// witnesses; whichever owns the next slot packs it.
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	i, err := n.Entry(entryNode)
	if err != nil {
		return err
	}
	nd := n.nodes[i]
	if err := nd.engine.Submit(tx); err != nil {
		return err
	}
	tx.Stages.Mark(chain.StageSubmit, n.env.Clock.Now())
	return nil
}

// conflictFilter implements the paper's interacting-operation exclusion: a
// transaction whose operations touch a state key already touched by a
// recently included transaction (same forming block, or within the sliding
// conflictWindow window) is dropped.
func (n *Network) conflictFilter(items []any) (included, excluded []any) {

	packedAt := n.env.Clock.Now()
	clear(n.blockTouched)
	for _, it := range items {
		tx, ok := it.(*chain.Transaction)
		if !ok {
			continue
		}
		conflict := false
		keys := n.spareKeys[:0]
		for _, op := range tx.Ops {
			written, count := iel.WrittenKeys(op)
			for _, k := range written[:count] {
				keys = append(keys, k)
				if n.blockTouched[k] || n.windowRefs[k] > 0 {
					conflict = true
				}
			}
		}
		n.spareKeys = keys
		if conflict {
			excluded = append(excluded, it)
			continue
		}
		for _, k := range keys {
			n.blockTouched[k] = true
		}
		if n.cfg.conflictWindow > 0 {
			n.spareKeys = n.slideWindow(keys)
		}
		// Packed into the forming block: the queue wait ends here.
		tx.Stages.Mark(chain.StageQueue, packedAt)
		included = append(included, it)
	}
	n.excluded += uint64(len(excluded))
	for _, it := range excluded {
		if tx, ok := it.(*chain.Transaction); ok {
			n.excludedOps += uint64(tx.OpCount())
		}
	}
	return included, excluded
}

// slideWindow admits an included transaction's written keys to the window
// and expires the oldest entry once more than conflictWindow are held. It
// returns a key slice the caller may overwrite: the expired entry's, or nil.
func (n *Network) slideWindow(keys []statestore.Key) (spare []statestore.Key) {
	for _, k := range keys {
		n.windowRefs[k]++
	}
	n.windowKeys = append(n.windowKeys, keys)
	if len(n.windowKeys)-n.windowHead <= n.cfg.conflictWindow {
		return nil
	}
	spare = n.windowKeys[n.windowHead]
	n.windowKeys[n.windowHead] = nil
	n.windowHead++
	for _, k := range spare {
		if n.windowRefs[k]--; n.windowRefs[k] == 0 {
			delete(n.windowRefs, k)
		}
	}
	if 2*n.windowHead >= len(n.windowKeys) {
		// Half the slice is expired entries: move the live ones down.
		n.windowKeys = append(n.windowKeys[:0], n.windowKeys[n.windowHead:]...)
		n.windowHead = 0
	}
	return spare
}

// makeDecideFunc builds the per-node commit pipeline: apply each
// transaction atomically; a failed operation discards the whole
// transaction without a client event. The pipeline is gated per node: a
// crashed node buffers produced blocks and replays them on restart
// (Graphene's chain resync).
func (n *Network) makeDecideFunc(nd *node) consensus.DecideFunc {
	apply := func(d consensus.Decision) { n.applyDecision(nd, d) }
	return func(d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(dpos.ProducedBlock); ok {
			txs = len(blk.Items)
		}
		systems.CommitTo(&nd.Gate, txs, d, apply)
	}
}

func (n *Network) applyDecision(nd *node, d consensus.Decision) {
	blk, ok := d.Payload.(dpos.ProducedBlock)
	if !ok {
		return
	}
	decided := n.env.Clock.Now()
	var surviving []*chain.Transaction
	for _, it := range blk.Items {
		tx, ok := it.(*chain.Transaction)
		if !ok {
			continue
		}
		tx.Stages.Mark(chain.StageConsensus, decided)
		if nd.DryRun(tx) {
			surviving = append(surviving, tx)
		} else if nd == n.nodes[0] {
			// Atomic discard ("if an operation fails, the whole transaction
			// is discarded", §5.3) is identical on every node; count the
			// lost payloads once for the conflict breakdown.
			n.execFailedOps += uint64(tx.OpCount())
		}
	}
	ts := time.Unix(0, int64(blk.Slot)) // deterministic per-slot stamp
	cb := n.Sealer.Seal(nd.Ledger.Head(), blk.Witness, ts, surviving)
	if err := nd.Ledger.Append(cb); err != nil {
		return
	}
	// One consensus-round span per sampled block, emitted at node 0's apply
	// site only (every node applies the identical produced block).
	if tr := n.env.Trace; nd == n.nodes[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameBitShares,
			Lane: "consensus", Start: ts.UnixNano(), End: decided.UnixNano(), Block: cb.Number})
	}
	now := n.env.Clock.Now()
	for txNum, tx := range surviving {
		nd.ApplyTx(tx, cb.Number, txNum)
		tx.Stages.Mark(chain.StageExecute, n.env.Clock.Now())
		nd.Hub.Committed(systems.Event{
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

// pendingBacklog is the chassis' admission-depth hook: the DPoS engines'
// pending-transaction backlog summed across nodes.
func (n *Network) pendingBacklog() int {
	depth := 0
	for _, nd := range n.nodes {
		depth += nd.engine.PendingCount()
	}
	return depth
}

// ExcludedCount reports transactions dropped by conflict exclusion.
func (n *Network) ExcludedCount() uint64 {
	return n.excluded
}

// ConflictCounts overrides the chassis default: payload operations
// shed by the interacting-operation exclusion and by atomic execution
// discard, neither of which produces a client event.
func (n *Network) ConflictCounts() map[string]uint64 {
	out := make(map[string]uint64, 2)
	if n.excludedOps > 0 {
		out[systems.AbortConflictExcluded] = n.excludedOps
	}
	if n.execFailedOps > 0 {
		out[systems.AbortExecFailed] = n.execFailedOps
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
