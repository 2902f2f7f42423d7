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
	"github.com/coconut-bench/coconut/internal/consensus/dpos"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
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
	*systems.Node
	engine *dpos.Engine[*chain.Transaction]
}

// Network is a full BitShares deployment.
type Network struct {
	*systems.LedgerCluster
	env systems.Env
	cfg config

	nodes []*node

	excluded    uint64 // transactions dropped by conflict exclusion
	excludedOps uint64 // payload operations those transactions carried

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

	cfgs := make([]dpos.Config[*chain.Transaction], env.Nodes)
	for i := range names {
		nd := &node{Node: n.Node(i)}
		nd.Endpoints = []string{nd.ID}
		cfgs[i] = dpos.Config[*chain.Transaction]{
			ID:            nd.ID,
			Witnesses:     witnesses,
			Observers:     observers,
			Transport:     n.Transport,
			Clock:         env.Clock,
			BlockInterval: cfg.blockInterval,
			MaxBlockItems: maxBlockTxs,
			ShuffleSeed:   env.Seed,
			PackFilter:    n.conflictFilter,
			// Atomicity: "if an operation fails, the whole transaction is
			// discarded" (§5.3), on every node alike.
			OnDecide: n.Decide(i, systems.Atomic, asBlock, nil),
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
func (n *Network) conflictFilter(items []*chain.Transaction) (included, excluded []*chain.Transaction) {
	packedAt := n.env.Clock.Now()
	clear(n.blockTouched)
	for _, tx := range items {
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
			excluded = append(excluded, tx)
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
		included = append(included, tx)
	}
	n.excluded += uint64(len(excluded))
	for _, tx := range excluded {
		n.excludedOps += uint64(tx.OpCount())
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

// asBlock adapts the DPoS payload to the chassis, stamped with its slot
// for a deterministic block time. A crashed node's gate buffers its blocks
// and replays them on restart (Graphene's chain resync).
func asBlock(p any) (systems.Block, bool) {
	blk, ok := p.(dpos.ProducedBlock[*chain.Transaction])
	return systems.Block{Proposer: blk.Witness, FormedAt: time.Unix(0, int64(blk.Slot)), Txs: blk.Items}, ok
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
	if d := n.DiscardedOps(); d > 0 {
		out[systems.AbortExecFailed] = d
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
