package systems

import (
	"fmt"
	"strings"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Node is what every node of every system has: its identity, its handle on
// the commit hub, its commit gate, and the transport endpoints it owns. A
// driver's own node type embeds it and adds the pipeline's parts (engine,
// pool, vault).
type Node struct {
	ID   string
	Hub  *HubNode
	Gate DurableGate
	// Endpoints are the transport endpoints this node (server) owns, set by
	// the driver: what a link fault aimed at the node degrades.
	Endpoints []string
}

// NodeIDs names n nodes "prefix-0" … "prefix-(n-1)".
func NodeIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return ids
}

// Cluster is the node chassis: the part of the Driver contract that does
// not depend on how a system orders transactions. A driver embeds it, keeps
// Start, Stop, Submit (its pipeline) and Preload, and gets the rest;
// ConflictCounts and Drained answer for a system that sheds nothing and
// holds nothing across phases, and a driver that does overrides them. Corda
// embeds Cluster itself; the five systems that replicate a ledger over a
// shared transport embed LedgerCluster.
type Cluster struct {
	// Hub is the network's commit hub; each Node holds its handle on it.
	Hub *Hub

	name    string
	nodes   []Node
	durable bool
	depth   func() int
	net     *network.Transport // nil for a system without a message fabric
	running bool
}

// NewCluster assembles the chassis of a network called name whose nodes are
// ids, in that order: the hub, each node's hub handle and, when env.WAL is
// set, its write-ahead log and trace lane on env's clock. depth reports the
// driver's admission backlog summed over its nodes (pools, ingress queues,
// flow mailboxes) for QueueSnapshot.
func NewCluster(name string, ids []string, env Env, depth func() int) *Cluster {
	c := &Cluster{}
	c.init(name, ids, env, depth)
	return c
}

func (c *Cluster) init(name string, ids []string, env Env, depth func() int) {
	c.Hub = NewHub(len(ids))
	c.name = name
	c.nodes = make([]Node, len(ids))
	c.durable = env.WAL != nil
	c.depth = depth
	for i, id := range ids {
		nd := &c.nodes[i]
		nd.ID = id
		nd.Hub = c.Hub.Node(id)
		if env.WAL != nil {
			nd.Gate.Enable(env.Clock, wal.New(id, *env.WAL, env.Clock))
			nd.Gate.Trace(env.Trace, name, id)
		}
	}
}

// Node returns node i's chassis.
func (c *Cluster) Node(i int) *Node { return &c.nodes[i] }

// Name implements Driver.
func (c *Cluster) Name() string { return c.name }

// NodeCount implements Driver.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// Subscribe implements Driver.
func (c *Cluster) Subscribe(client string, fn EventFunc) { c.Hub.Subscribe(client, fn) }

// MarkStarted opens the network for submissions and reports whether it was
// stopped: a driver's Start returns at once when it was not.
func (c *Cluster) MarkStarted() bool {
	was := c.running
	c.running = true
	return !was
}

// MarkStopped closes the network to submissions, disarms every node's gate
// deadline, and reports whether it was running: a driver's Stop returns at
// once when it was not.
func (c *Cluster) MarkStopped() bool {
	was := c.running
	c.running = false
	for i := range c.nodes {
		if due := c.nodes[i].Gate.due; due != nil {
			due.Stop() // the work still waiting on a log drops with the process
		}
	}
	return was
}

// Entry resolves the node a submission enters through. Clients spread over
// the servers (§4.3), so entryNode wraps around the network size. It fails
// with consensus.ErrNotRunning outside Start…Stop and with ErrNodeDown when
// the entry node is crashed (the client's RPC endpoint is unreachable).
func (c *Cluster) Entry(entryNode int) (int, error) {
	if !c.running {
		return 0, consensus.ErrNotRunning
	}
	i := entryNode % len(c.nodes)
	if c.nodes[i].Gate.Down() {
		return 0, ErrNodeDown
	}
	return i, nil
}

func (c *Cluster) checkIndex(node int) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("%w: node %d of %d", ErrNodeDown, node, len(c.nodes))
	}
	return nil
}

// CrashNode implements Driver: the node's commit plane stops and its entry
// endpoint rejects submissions; the commit work decided while it is down
// buffers behind its gate.
func (c *Cluster) CrashNode(node int) error {
	if err := c.checkIndex(node); err != nil {
		return err
	}
	c.nodes[node].Gate.Crash()
	return nil
}

// RestartNode implements Driver: the node replays its log, catches up on
// the commits it missed in the order the others applied them, and resumes.
func (c *Cluster) RestartNode(node int) (time.Duration, error) {
	if err := c.checkIndex(node); err != nil {
		return 0, err
	}
	return c.nodes[node].Gate.Restart(), nil
}

// ResumeNode implements Driver.
func (c *Cluster) ResumeNode(node int) time.Duration {
	if c.checkIndex(node) != nil {
		return 0
	}
	return c.nodes[node].Gate.Resume()
}

// NodeWAL implements Driver: node i's write-ahead log, or nil when
// durability is disabled or i is out of range.
func (c *Cluster) NodeWAL(node int) *wal.Log {
	if c.checkIndex(node) != nil {
		return nil
	}
	return c.nodes[node].Gate.WAL()
}

// FaultTransport implements Driver: the shared fabric, nil for a system
// without one.
func (c *Cluster) FaultTransport() *network.Transport { return c.net }

// NodeEndpoints implements Driver: the endpoints node (server) i owns, nil
// when it owns none or i is out of range.
func (c *Cluster) NodeEndpoints(node int) []string {
	if c.checkIndex(node) != nil {
		return nil
	}
	return c.nodes[node].Endpoints
}

// ConflictCounts implements Driver for a system that sheds no work without
// a client event.
func (c *Cluster) ConflictCounts() map[string]uint64 { return nil }

// Drained implements Driver for a system whose queues hold no work across
// phases.
func (c *Cluster) Drained() bool { return true }

// RecoveryStats implements Driver: the durability plane's counters summed
// over the nodes' gates.
func (c *Cluster) RecoveryStats() (RecoveryStats, bool) {
	var rs RecoveryStats
	for i := range c.nodes {
		rs = rs.Add(c.nodes[i].Gate.Stats())
	}
	return rs, c.durable
}

// QueueSnapshot implements Driver: hub in-flight, the driver's
// admission backlog, the transport's undelivered messages, and gate/WAL
// occupancy summed over the nodes.
func (c *Cluster) QueueSnapshot() QueueStats {
	qs := QueueStats{HubInflight: c.Hub.PendingCount(), MempoolDepth: c.depth()}
	if c.net != nil {
		qs.NetPending = c.net.PendingCount()
	}
	for i := range c.nodes {
		g := &c.nodes[i].Gate
		qs.GateBacklog += g.Backlog()
		if log := g.WAL(); log != nil {
			qs.WALLiveBytes += int64(log.Stats().LiveBytes)
			qs.WALUnsynced += log.UnsyncedRecords()
		}
	}
	return qs
}

// Replica is one node of a LedgerCluster: the node chassis plus its copy of
// the chain and of the world state, and the execution adapters ExecuteTx,
// ApplyTx and DryRun reuse from call to call. Those three are the replica's
// commit work and belong inside its gate (systems.CommitTo), which runs one
// unit of a node's commit work at a time — on whatever commits while the
// node is up, on whatever runs the drain while it restarts — so the
// adapters are reused without a lock.
type Replica struct {
	*Node
	Ledger *chain.Ledger
	State  *statestore.KVStore

	exec kvState
	dry  overlay
}

// LedgerCluster is the chassis of a system whose nodes each replicate one
// ledger and one key-value world state and talk over a shared transport
// (Fabric, Quorum, Sawtooth, Diem, BitShares). Corda has neither a message
// fabric nor a KV world state, so it embeds Cluster alone and its
// FaultTransport is nil.
type LedgerCluster struct {
	Cluster
	// Transport carries the system's consensus and gossip messages.
	Transport *network.Transport
	// Sealer builds one block per decision, shared by the replicas.
	Sealer chain.Sealer

	replicas []Replica
}

// NewLedgerCluster assembles a Cluster plus the private transport (traced
// under the system's name, with env's link latency) and every replica's
// ledger and world state, the states on one key index. The ledgers' genesis
// network ID is the lower-cased system name.
func NewLedgerCluster(name string, ids []string, env Env, depth func() int) *LedgerCluster {
	c := &LedgerCluster{}
	c.init(name, ids, env, depth)
	c.Transport = network.NewTransport(env.Clock, env.Latency)
	if env.Trace != nil {
		c.Transport.SetTracer(env.Trace, name)
	}
	c.net = c.Transport
	c.replicas = make([]Replica, len(ids))
	keys := statestore.NewIndex()
	for i := range c.replicas {
		c.replicas[i] = Replica{
			Node:   c.Node(i),
			Ledger: chain.NewLedger(strings.ToLower(name)),
			State:  keys.NewKVStore(),
		}
	}
	return c
}

// Replicas returns the replicas in node order; the slice is the cluster's own.
func (c *LedgerCluster) Replicas() []Replica { return c.replicas }

// Ledger returns node i's chain (i wraps), for tests and examples.
func (c *LedgerCluster) Ledger(i int) *chain.Ledger { return c.replicas[i%len(c.replicas)].Ledger }

// WorldState returns node i's world state (i wraps), for verification.
func (c *LedgerCluster) WorldState(i int) *statestore.KVStore {
	return c.replicas[i%len(c.replicas)].State
}

// Preload implements Driver: the operations are applied directly to every
// replica's world state at version {0, i} (the YCSB load-phase analogue), so
// contention workloads start from a materialized shared key space. The
// identical version on every replica keeps later MVCC validation consistent.
func (c *LedgerCluster) Preload(ops []chain.Operation) error {
	for r := range c.replicas {
		for i, op := range ops {
			if err := iel.Execute(op, c.replicas[r].at(0, i)); err != nil {
				return fmt.Errorf("%s preload op %d: %w", c.name, i, err)
			}
		}
	}
	return nil
}

// kvState adapts a KVStore to iel.StateOps, writing at one version.
type kvState struct {
	state *statestore.KVStore
	ver   statestore.Version
}

var _ iel.StateOps = (*kvState)(nil)

func (a *kvState) Get(key statestore.Key) (string, bool) {
	v, ok := a.state.Get(key)
	return v.Value, ok
}

func (a *kvState) Put(key statestore.Key, value string) { a.state.Set(key, value, a.ver) }

// at points the replica's adapter at its state and the given version.
func (r *Replica) at(blockNum uint64, txNum int) *kvState {
	r.exec = kvState{state: r.State, ver: statestore.Version{BlockNum: blockNum, TxNum: txNum}}
	return &r.exec
}

// ExecuteTx runs tx's operations in order against the replica's state at
// version {blockNum, txNum} and stops at the first that fails; what ran
// before it stays written (order-execute systems include the failed
// transaction).
func (r *Replica) ExecuteTx(tx *chain.Transaction, blockNum uint64, txNum int) error {
	a := r.at(blockNum, txNum)
	for _, op := range tx.Ops {
		if err := iel.Execute(op, a); err != nil {
			return err
		}
	}
	return nil
}

// ApplyTx commits a transaction that passed its DryRun: every operation
// runs at version {blockNum, txNum}, and one that fails after all (another
// transaction of the same block got there first) is skipped.
func (r *Replica) ApplyTx(tx *chain.Transaction, blockNum uint64, txNum int) {
	a := r.at(blockNum, txNum)
	for _, op := range tx.Ops {
		_ = iel.Execute(op, a)
	}
}

// DryRun reports whether every operation of txs, run in order against a
// read-through overlay of the replica's state that keeps the writes to
// itself, succeeds — the all-or-nothing check of an atomic transaction
// (BitShares) or batch (Sawtooth).
func (r *Replica) DryRun(txs ...*chain.Transaction) bool {
	o := &r.dry
	o.reset(r.State)
	for _, tx := range txs {
		for _, op := range tx.Ops {
			if err := iel.Execute(op, o); err != nil {
				return false
			}
		}
	}
	return true
}

// overlayInline is how many written keys an overlay finds by linear search
// before it indexes the rest: a transaction of the paper's operations writes
// one to three, a Sawtooth batch of a hundred some two hundred.
const overlayInline = 8

// overlay reads through to the base store but keeps writes local: the first
// overlayInline written keys in an array, later ones in a map that reset
// clears and the next dry-run reuses.
type overlay struct {
	base  *statestore.KVStore
	n     int
	first [overlayInline]struct {
		key   statestore.Key
		value string
	}
	spill map[statestore.Key]string
}

var _ iel.StateOps = (*overlay)(nil)

func (o *overlay) reset(base *statestore.KVStore) {
	o.base, o.n = base, 0
	clear(o.spill)
}

// inline returns where the array holds key's value, nil when it does not.
func (o *overlay) inline(key statestore.Key) *string {
	for i := range o.first[:o.n] {
		if o.first[i].key == key {
			return &o.first[i].value
		}
	}
	return nil
}

func (o *overlay) Get(key statestore.Key) (string, bool) {
	if v := o.inline(key); v != nil {
		return *v, true
	}
	if v, ok := o.spill[key]; ok {
		return v, true
	}
	v, ok := o.base.Get(key)
	return v.Value, ok
}

func (o *overlay) Put(key statestore.Key, value string) {
	switch v := o.inline(key); {
	case v != nil:
		*v = value
	case o.n < overlayInline:
		o.first[o.n].key, o.first[o.n].value = key, value
		o.n++
	default:
		if o.spill == nil {
			o.spill = map[statestore.Key]string{}
		}
		o.spill[key] = value
	}
}
