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
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/dpos"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Config parameterizes a BitShares network.
type Config struct {
	// Nodes is the network size (paper: 4, with Nodes-1 witnesses).
	Nodes int
	// BlockInterval is the paper's block_interval (default 5s upstream,
	// swept over {1, 2, 5, 10}s).
	BlockInterval time.Duration
	// ConflictWindowTxs sizes the interacting-operation exclusion window in
	// recently included transactions. The paper's exclusion is per forming
	// block (§5.3); under time scaling a block holds proportionally fewer
	// transactions, so the window is expressed in transactions to preserve
	// the paper's conflict-collision ratio. 0 restricts exclusion to the
	// current block only.
	ConflictWindowTxs int
	// Latency models the per-hop delay of the network's private transport;
	// nil means zero latency.
	Latency network.LatencyModel
	// Clock drives timers.
	Clock clock.Clock
	// Seed randomizes the witness schedule deterministically.
	Seed int64
	// WAL, when set, mounts a write-ahead log on every node's commit gate
	// (see systems.DurableGate).
	WAL *wal.Options
	// Trace, when set, receives sampled spans: consensus rounds, WAL
	// appends/fsyncs, and (on a private transport) network hops.
	Trace *trace.Tracer
}

func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// maxBlockTxs caps transactions per block.
const maxBlockTxs = 8192

// node is one BitShares node (witness or observer).
type node struct {
	systems.Replica
	engine *dpos.Engine
}

// Network is a full BitShares deployment.
type Network struct {
	*systems.LedgerCluster
	cfg Config

	nodes []*node

	mu            sync.Mutex
	excluded      uint64 // transactions dropped by conflict exclusion
	excludedOps   uint64 // payload operations those transactions carried
	execFailedOps uint64 // payload operations discarded by atomic execution failure

	// Sliding conflict window over the most recent ConflictWindowTxs
	// included transactions: windowKeys[windowHead:] holds each one's
	// written keys, oldest first, and windowRefs counts per key how many of
	// them wrote it, so membership is one lookup.
	windowKeys   [][]string
	windowHead   int
	windowRefs   map[string]int
	blockTouched map[string]bool // scratch of one conflictFilter call
	spareKeys    []string        // backing array recycled from the window
}

var _ systems.Driver = (*Network)(nil)

// New assembles a BitShares network.
func New(cfg Config) *Network {
	cfg.fill()
	n := &Network{
		cfg:          cfg,
		windowRefs:   make(map[string]int),
		blockTouched: make(map[string]bool),
	}
	names := systems.NodeIDs("bitshares", cfg.Nodes)
	n.LedgerCluster = systems.NewLedgerCluster(systems.NameBitShares, names, cfg.Latency, cfg.Clock, cfg.WAL, cfg.Trace, n.pendingBacklog)

	// Topology: all but the last node are witnesses (Table 4), at least one.
	witnessCount := max(cfg.Nodes-1, 1)
	witnesses, observers := names[:witnessCount], names[witnessCount:]

	cfgs := make([]dpos.Config, cfg.Nodes)
	for i, r := range n.Replicas() {
		nd := &node{Replica: r}
		nd.Endpoints = []string{nd.ID}
		cfgs[i] = dpos.Config{
			ID:            nd.ID,
			Witnesses:     witnesses,
			Observers:     observers,
			Transport:     n.Transport,
			Clock:         cfg.Clock,
			BlockInterval: cfg.BlockInterval,
			MaxBlockItems: maxBlockTxs,
			ShuffleSeed:   cfg.Seed,
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
	tx.Stages.Mark(chain.StageSubmit, n.cfg.Clock.Now())
	return nil
}

// conflictFilter implements the paper's interacting-operation exclusion: a
// transaction whose operations touch a state key already touched by a
// recently included transaction (same forming block, or within the sliding
// ConflictWindowTxs window) is dropped.
func (n *Network) conflictFilter(items []any) (included, excluded []any) {
	n.mu.Lock()
	defer n.mu.Unlock()

	packedAt := n.cfg.Clock.Now()
	clear(n.blockTouched)
	for _, it := range items {
		tx, ok := it.(*chain.Transaction)
		if !ok {
			continue
		}
		conflict := false
		keys := n.spareKeys[:0]
		for _, op := range tx.Ops {
			for _, k := range iel.WrittenKeys(op) {
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
		if n.cfg.ConflictWindowTxs > 0 {
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
// and expires the oldest entry once more than ConflictWindowTxs are held. It
// returns a key slice the caller may overwrite: the expired entry's, or nil.
func (n *Network) slideWindow(keys []string) (spare []string) {
	for _, k := range keys {
		n.windowRefs[k]++
	}
	n.windowKeys = append(n.windowKeys, keys)
	if len(n.windowKeys)-n.windowHead <= n.cfg.ConflictWindowTxs {
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
	return func(d consensus.Decision) {
		txs := 0
		if blk, ok := d.Payload.(dpos.ProducedBlock); ok {
			txs = len(blk.Items)
		}
		nd.Gate.Commit(txs, func() { n.applyDecision(nd, d) })
	}
}

func (n *Network) applyDecision(nd *node, d consensus.Decision) {
	blk, ok := d.Payload.(dpos.ProducedBlock)
	if !ok {
		return
	}
	decided := n.cfg.Clock.Now()
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
			n.mu.Lock()
			n.execFailedOps += uint64(tx.OpCount())
			n.mu.Unlock()
		}
	}
	ts := time.Unix(0, int64(blk.Slot)) // deterministic per-slot stamp
	cb := n.Sealer.Seal(nd.Ledger.Head(), blk.Witness, ts, surviving)
	if err := nd.Ledger.Append(cb); err != nil {
		return
	}
	// One consensus-round span per sampled block, emitted at node 0's apply
	// site only (every node applies the identical produced block).
	if tr := n.cfg.Trace; nd == n.nodes[0] && tr.Sampled(cb.Number) {
		tr.Add(trace.Span{Name: "round", Cat: "consensus", Proc: systems.NameBitShares,
			Lane: "consensus", Start: ts.UnixNano(), End: decided.UnixNano(), Block: cb.Number})
	}
	now := n.cfg.Clock.Now()
	for txNum, tx := range surviving {
		nd.ApplyTx(tx, cb.Number, txNum)
		tx.Stages.Mark(chain.StageExecute, n.cfg.Clock.Now())
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
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.excluded
}

// ConflictCounts overrides the chassis default: payload operations
// shed by the interacting-operation exclusion and by atomic execution
// discard, neither of which produces a client event.
func (n *Network) ConflictCounts() map[string]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
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
