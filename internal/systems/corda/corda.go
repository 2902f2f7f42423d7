// Package corda simulates Corda 4.8.6, both the Open Source and the
// Enterprise edition, as benchmarked in the paper. Corda is blockless: each
// transaction is a UTXO flow that must be signed by every node in the
// network and, when it consumes states, notarised by the uniqueness service
// (paper §2).
//
// Behaviours reproduced from the paper:
//   - Corda OS processes flows on a single worker and collects the other
//     nodes' signatures serially ("Corda OS does this serially", §5.1);
//     Enterprise uses multithreaded flow workers and parallel signing
//     (§5.2) — the cause of the roughly 10x gap between the editions.
//   - Read flows (KeyValue-Get, BankingApp-Balance) iterate over every
//     vault state to find a key ("These functions require ... iterating
//     over each KeyValue pair", §5.1). Under load the scan pushes flows
//     past their deadline: Corda OS Get fails completely, Enterprise reads
//     crawl at 0.13-3.5 MTPS.
//   - Only flows that consume states (SendPayment) talk to the notary
//     (§5.8.1), which rejects already-consumed states.
//   - Failed, timed-out, or rejected flows produce no client event: the
//     paper counts them as transactions never received.
package corda

import (
	"fmt"
	"strconv"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus/notary"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
)

// Edition selects the Corda variant.
type Edition int

// Corda editions.
const (
	OpenSource Edition = iota + 1
	Enterprise
)

// String implements fmt.Stringer.
func (e Edition) String() string {
	switch e {
	case OpenSource:
		return systems.NameCordaOS
	case Enterprise:
		return systems.NameCordaEnt
	default:
		return fmt.Sprintf("Edition(%d)", int(e))
	}
}

// Corda's calibration. Its throughput is flow-time-limited, not
// block-limited, so its processing costs stay in real time rather than
// scaling with the clock: on 4 nodes, Open Source's serial signing of 3
// counterparties at 180 ms each yields the paper's ~7 MTPS DoNothing
// capacity, and Enterprise's parallel signing (one 500 ms hop) with 8 flow
// workers per node its ~64 MTPS.
const (
	osSignProcessing  = 180 * time.Millisecond
	osScanCost        = 20 * time.Millisecond
	osReadScanBudget  = 8 // full-vault reads are hopeless (§5.1)
	entSignProcessing = 500 * time.Millisecond
	entScanCost       = 30 * time.Millisecond
	// flowTimeout abandons flows that run too long; abandoned flows are
	// lost without a client event.
	flowTimeout    = 10 * time.Second
	flowQueueDepth = 4096
)

// config is one Corda network's calibration. Unit tests override a field to
// isolate one mechanism.
type config struct {
	edition Edition
	// signProcessing is the per-party flow-processing time during
	// signature collection.
	signProcessing time.Duration
	scanCost       time.Duration // per vault state visited by a query
	queueDepth     int           // per-node flow backlog; overflow is dropped silently
	// readScanBudget, when positive, bounds how many vault states a read
	// flow may visit before it is abandoned as timed out. It models the
	// paper's Corda OS finding that full-vault iteration makes reads
	// hopeless once the vault is non-trivial (§5.1). 0 = unlimited.
	readScanBudget int
}

// osConfig and entConfig are the two editions' calibrations. Corda takes
// none of the paper's parameters but RL, which only the clients use.
func osConfig() config {
	return config{edition: OpenSource, signProcessing: osSignProcessing, scanCost: osScanCost,
		queueDepth: flowQueueDepth, readScanBudget: osReadScanBudget}
}

func entConfig() config {
	return config{edition: Enterprise, signProcessing: entSignProcessing, scanCost: entScanCost,
		queueDepth: flowQueueDepth}
}

// flowJob is one queued flow invocation.
type flowJob struct {
	tx *chain.Transaction
}

// node is one Corda node.
type node struct {
	*systems.Node
	vault *chain.Vault
	queue *clock.Mailbox[flowJob]
}

// Network is a full Corda deployment (either edition).
type Network struct {
	// Cluster, not LedgerCluster: Corda has no message fabric (latency is
	// modeled point to point) and no key-value world state, so link faults
	// do not apply to it and it exposes no WorldState.
	*systems.Cluster
	env systems.Env
	cfg config
	// flowWorkers is the per-node flow concurrency: 1 for OS, whose flows
	// run single-threaded, and 8 for Enterprise.
	flowWorkers int

	nodes  []*node
	notary *notary.Service

	dropped   uint64            // flows lost to queue overflow
	timeout   uint64            // flows lost to deadline
	failed    uint64            // flows lost to execution/notary failure
	conflicts map[string]uint64 // failed flows by canonical abort code

	stop *clock.Gate
	join func() // waits for the flow workers Start began
}

var _ systems.Driver = (*Network)(nil)

// NewOS assembles a Corda Open Source network on env. It takes the paper's
// parameters like every driver, but none of them is Corda's.
func NewOS(env systems.Env, _ systems.Params) *Network { return build(env, osConfig()) }

// NewEnterprise assembles a Corda Enterprise network on env.
func NewEnterprise(env systems.Env, _ systems.Params) *Network { return build(env, entConfig()) }

func build(env systems.Env, cfg config) *Network {
	if env.Latency == nil {
		env.Latency = network.ZeroLatency{}
	}
	workers := 1
	if cfg.edition == Enterprise {
		workers = 8
	}
	n := &Network{
		env:         env,
		cfg:         cfg,
		flowWorkers: workers,
		notary:      notary.NewService("corda-notary"),
		conflicts:   make(map[string]uint64),
		stop:        clock.NewGate(env.Clock),
	}
	n.Cluster = systems.NewCluster(cfg.edition.String(), systems.NodeIDs("corda-node", env.Nodes), env, n.flowBacklog)
	for i := 0; i < env.Nodes; i++ {
		n.nodes = append(n.nodes, &node{
			Node:  n.Node(i),
			vault: chain.NewVault(),
			queue: clock.NewMailbox[flowJob](env.Clock, cfg.queueDepth),
		})
	}
	return n
}

// Start implements systems.Driver.
func (n *Network) Start() error {
	if !n.MarkStarted() {
		return nil
	}
	var names []string
	for _, nd := range n.nodes {
		for w := 0; w < n.flowWorkers; w++ {
			names = append(names, "corda/"+nd.ID+"/w"+strconv.Itoa(w))
		}
	}
	// Worker i serves node i/flowWorkers's queue, sharing it with its
	// siblings; each binds its own receiver. Stop beats a queued job.
	n.join = clock.Go(n.env.Clock, names, func(i int) {
		nd := n.nodes[i/n.flowWorkers]
		var job flowJob
		srcs := []clock.Waitable{n.stop, nd.queue.Receiver(&job)}
		for {
			if got, _, _ := clock.Await(n.env.Clock, srcs...); got == 0 {
				return
			}
			n.runFlow(nd, job.tx)
		}
	})
	return nil
}

// Stop implements systems.Driver.
func (n *Network) Stop() {
	if !n.MarkStopped() {
		return
	}
	n.stop.Close()
	n.join()
}

// Submit implements systems.Driver: the flow enqueues on the entry node's
// flow workers. Overflow drops the flow silently (lost end to end).
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	i, err := n.Entry(entryNode)
	if err != nil {
		return err // ErrNodeDown: the RPC connection is refused
	}
	nd := n.nodes[i]
	if nd.queue.TrySend(flowJob{tx: tx}) {
		tx.Stages.Mark(chain.StageSubmit, n.env.Clock.Now())
		return nil
	}
	n.dropped++
	return nil // silent: the RPC accepted the flow, the node shed it
}

// runFlow executes one flow end to end on the entry node.
func (n *Network) runFlow(entry *node, tx *chain.Transaction) {
	started := n.env.Clock.Now()
	// A flow worker picked the job up: the queue wait ends here.
	tx.Stages.Mark(chain.StageQueue, started)
	op := tx.Ops[0]

	// Phase 1: build the UTXO transaction, paying vault-scan costs for
	// reads and input resolution.
	utx, readOnly, err := n.buildTransaction(entry, tx, op)
	if err != nil {
		n.recordFailure(err)
		return
	}
	// Flow build is Corda's execution phase (vault scans, contract logic).
	built := n.env.Clock.Now()
	tx.Stages.Mark(chain.StageExecute, built)
	if n.deadlineExceeded(started) {
		n.recordTimeout()
		return
	}

	// Phase 2: collect signatures from every other node, as the benchmarked
	// deployments require.
	if err := n.collectSignatures(entry); err != nil {
		n.recordFailure(err)
		return
	}
	if n.deadlineExceeded(started) {
		n.recordTimeout()
		return
	}

	// Phase 3: notarise when the flow consumes states (§5.8.1: only
	// state-consuming flows need the notary).
	if utx != nil && len(utx.Inputs) > 0 {
		rtt := n.env.Latency.Delay(entry.ID, n.notary.Name) + n.env.Latency.Delay(n.notary.Name, entry.ID)
		n.env.Clock.Sleep(rtt)
		if err := n.notary.Notarise(utx.ID, utx.Inputs); err != nil {
			n.recordFailure(err) // double spend: flow fails, tx lost
			return
		}
	}
	if n.deadlineExceeded(started) {
		n.recordTimeout()
		return
	}
	// Signature collection plus notarisation is Corda's ordering/consensus
	// analogue: after this instant the flow's outcome is decided.
	decided := n.env.Clock.Now()
	tx.Stages.Mark(chain.StageConsensus, decided)
	// Blockless Corda has no rounds; the consensus-analogue span covers one
	// sampled flow's signing plus notarisation, keyed to its transaction.
	if tr := n.env.Trace; tr.Sampled(trace.Key(tx.ID)) {
		tr.Add(trace.Span{Key: trace.Key(tx.ID), Name: "flow:sign+notarise", Cat: "consensus",
			Proc: n.Name(), Lane: "consensus", Start: built.UnixNano(), End: decided.UnixNano()})
	}

	// Phase 4: finality — distribute to every vault; reads complete on the
	// entry node alone.
	now := n.env.Clock.Now()
	// One event per flow, shared by every node's commit work below.
	ev := &systems.Event{
		TxID:      tx.ID,
		Client:    tx.Client,
		Committed: true,
		ValidOK:   true,
		OpCount:   tx.OpCount(),
		Stages:    &tx.Stages,
	}
	if readOnly || utx == nil {
		n.Hub.EmitDirect(*ev, now)
		return
	}
	// One flow counts as one failure no matter how many vaults reject its
	// states, including a crashed node's deferred apply replayed at restart.
	failed := new(bool)
	for _, nd := range n.nodes {
		if nd != entry {
			// State distribution crosses the network once per node.
			n.env.Clock.Sleep(n.env.Latency.Delay(entry.ID, nd.ID))
		}
		// A node that crashed between signing and finality receives the
		// states when it restarts (Corda's message-queue redelivery). Each
		// flow is one WAL record: Corda persists per transaction, not per
		// block.
		systems.CommitTo(&nd.Gate, 1, finality{n, nd, utx, ev, failed}, applyFinality)
	}
}

// collectSignatures charges the flow the wait for every counterparty's
// signature: one round trip plus the counterparty's flow processing each.
// Nothing verifies a signature, so none is computed; the wait is its
// modeled cost. Corda requires every counterparty's signature, so a crashed
// signer fails the whole flow and one node outage halts all write flows —
// the flip side of the paper's §6 observation that requiring fewer signers
// is where Corda's scalability lies.
//
// Open Source asks the counterparties one after another in node order
// ("Corda OS does this serially", §5.1): the wait is the sum of their costs,
// and the first crashed one fails the flow once those before it have
// signed. Enterprise asks them all at once (§5.2): the wait is the largest
// cost among those that are up, after which the first crashed one in node
// order fails the flow. That sum against a max is the editions' 10x gap.
func (n *Network) collectSignatures(entry *node) error {
	var wait time.Duration
	var down *node
	for _, p := range n.nodes {
		if p == entry {
			continue
		}
		if p.Gate.Down() {
			if down == nil {
				down = p
			}
			if n.cfg.edition == OpenSource {
				break
			}
			continue
		}
		cost := n.env.Latency.Delay(entry.ID, p.ID) + n.env.Latency.Delay(p.ID, entry.ID) + n.cfg.signProcessing
		if n.cfg.edition == OpenSource {
			n.env.Clock.Sleep(cost)
		} else {
			wait = max(wait, cost)
		}
	}
	n.env.Clock.Sleep(wait)
	if down != nil {
		return fmt.Errorf("corda: counterparty %s unreachable", down.ID)
	}
	return nil
}

// finality is one node's share of a flow's finality, the commit work its
// gate runs: apply the flow's states to the node's vault and confirm the
// flow's event. failed is shared by every node's share of one flow.
type finality struct {
	n      *Network
	nd     *node
	utx    *chain.UTXOTransaction
	ev     *systems.Event
	failed *bool
}

func applyFinality(f finality) {
	if err := f.nd.vault.Apply(f.utx); err != nil {
		if !*f.failed {
			*f.failed = true
			f.n.recordFailure(err)
		}
		return
	}
	// Vault apply is Corda's commit-time validation (the vault rejects
	// already-consumed inputs); first node wins the mark.
	now := f.n.env.Clock.Now()
	f.ev.Stages.Mark(chain.StageValidate, now)
	f.nd.Hub.Committed(*f.ev, now)
}

// buildTransaction translates an IEL operation into a UTXO transaction,
// charging vault scan costs. It returns utx == nil with readOnly == true
// for pure reads.
func (n *Network) buildTransaction(entry *node, tx *chain.Transaction, op chain.Operation) (*chain.UTXOTransaction, bool, error) {
	switch {
	case op.IEL == iel.DoNothingName:
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, nil,
			[]chain.ContractState{{Kind: "noop", Key: crypto.FormatID("noop", tx.ID)}})
		return utx, false, nil

	case op.IEL == iel.KeyValueName && op.Function == iel.FnSet:
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: Set wants 2 args")
		}
		// The paper's KeyValue-Set "iteratively check[s] whether a KeyValue
		// pair exists" just like Get (§5.1), so the write pays the
		// duplicate-check scan. Unlike pure reads it is not budget-bounded:
		// the flow proceeds once the key is (for the paper's partitioned
		// scheme, always) found absent. When the key does exist — the
		// contention plane's shared key spaces — the flow consumes the old
		// state and reissues it, so concurrent writers of one hot key race
		// at the notary instead of silently accumulating duplicates.
		var inputs []chain.StateRef
		if ref, _, found := n.findStateOpt(entry, "kv", op.Args[0]); found {
			inputs = []chain.StateRef{ref}
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, inputs,
			[]chain.ContractState{{Kind: "kv", Key: op.Args[0], Value: op.Args[1], Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.KeyValueName && op.Function == iel.FnGet:
		if len(op.Args) != 1 {
			return nil, false, fmt.Errorf("corda: Get wants 1 arg")
		}
		_, _, found, err := n.scanVault(entry, "kv", op.Args[0])
		if err != nil {
			return nil, true, err
		}
		if !found {
			return nil, true, fmt.Errorf("corda: key %q not found", op.Args[0])
		}
		return nil, true, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnCreateAccount:
		if len(op.Args) != 3 {
			return nil, false, fmt.Errorf("corda: CreateAccount wants 3 args")
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, nil, []chain.ContractState{
			{Kind: "account", Key: op.Args[0], Value: op.Args[1], Owner: tx.Client},
			{Kind: "savings", Key: op.Args[0], Value: op.Args[2], Owner: tx.Client},
		})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnSendPayment:
		if len(op.Args) != 3 {
			return nil, false, fmt.Errorf("corda: SendPayment wants 3 args")
		}
		ref, st, found, err := n.scanVault(entry, "account", op.Args[0])
		if err != nil {
			return nil, false, err
		}
		if !found {
			return nil, false, fmt.Errorf("corda: account %q not found", op.Args[0])
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{ref},
			[]chain.ContractState{{Kind: "account", Key: op.Args[1], Value: st.Value, Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnBalance:
		if len(op.Args) != 1 {
			return nil, false, fmt.Errorf("corda: Balance wants 1 arg")
		}
		_, _, found, err := n.scanVault(entry, "account", op.Args[0])
		if err != nil {
			return nil, true, err
		}
		if !found {
			return nil, true, fmt.Errorf("corda: account %q not found", op.Args[0])
		}
		return nil, true, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnTransactSavings:
		// The flow consumes the savings state and reissues it with the new
		// balance; concurrent flows on the same account race at the notary.
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: TransactSavings wants 2 args")
		}
		id := op.Args[0]
		ref, st, err := n.findState(entry, "savings", id)
		if err != nil {
			return nil, false, err
		}
		bal, amt, err := parseBalanceDelta(st.Value, op.Args[1])
		if err != nil {
			return nil, false, err
		}
		if bal+amt < 0 {
			return nil, false, fmt.Errorf("%w: %q savings %d, delta %d", iel.ErrInsufficientFunds, id, bal, amt)
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{ref},
			[]chain.ContractState{{Kind: "savings", Key: id, Value: formatBalance(bal + amt), Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnDepositChecking:
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: DepositChecking wants 2 args")
		}
		id := op.Args[0]
		ref, st, err := n.findState(entry, "account", id)
		if err != nil {
			return nil, false, err
		}
		bal, amt, err := parseBalanceDelta(st.Value, op.Args[1])
		if err != nil || amt < 0 {
			return nil, false, fmt.Errorf("corda: bad deposit amount %q", op.Args[1])
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{ref},
			[]chain.ContractState{{Kind: "account", Key: id, Value: formatBalance(bal + amt), Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnWriteCheck:
		// The check clears against checking + savings but only the checking
		// state is consumed and reissued.
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: WriteCheck wants 2 args")
		}
		id := op.Args[0]
		ref, st, err := n.findState(entry, "account", id)
		if err != nil {
			return nil, false, err
		}
		_, sav, err := n.findState(entry, "savings", id)
		if err != nil {
			return nil, false, err
		}
		checking, amt, err := parseBalanceDelta(st.Value, op.Args[1])
		if err != nil || amt < 0 {
			return nil, false, fmt.Errorf("corda: bad check amount %q", op.Args[1])
		}
		savings, _ := strconv.ParseInt(sav.Value, 10, 64)
		if checking+savings < amt {
			return nil, false, fmt.Errorf("%w: %q has %d, check for %d", iel.ErrInsufficientFunds, id, checking+savings, amt)
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{ref},
			[]chain.ContractState{{Kind: "account", Key: id, Value: formatBalance(checking - amt), Owner: tx.Client}})
		return utx, false, nil

	case op.IEL == iel.BankingAppName && op.Function == iel.FnAmalgamate:
		// Consumes three states across two accounts — the family's widest
		// notary conflict footprint.
		if len(op.Args) != 2 {
			return nil, false, fmt.Errorf("corda: Amalgamate wants 2 args")
		}
		src, dst := op.Args[0], op.Args[1]
		srcChkRef, srcChk, err := n.findState(entry, "account", src)
		if err != nil {
			return nil, false, err
		}
		srcSavRef, srcSav, err := n.findState(entry, "savings", src)
		if err != nil {
			return nil, false, err
		}
		dstRef, dstChk, err := n.findState(entry, "account", dst)
		if err != nil {
			return nil, false, err
		}
		sc, _ := strconv.ParseInt(srcChk.Value, 10, 64)
		ss, _ := strconv.ParseInt(srcSav.Value, 10, 64)
		dc, _ := strconv.ParseInt(dstChk.Value, 10, 64)
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{srcChkRef, srcSavRef, dstRef},
			[]chain.ContractState{
				{Kind: "account", Key: src, Value: "0", Owner: tx.Client},
				{Kind: "savings", Key: src, Value: "0", Owner: tx.Client},
				{Kind: "account", Key: dst, Value: formatBalance(dc + sc + ss), Owner: tx.Client},
			})
		return utx, false, nil

	default:
		return nil, false, fmt.Errorf("corda: unsupported operation %s", op)
	}
}

// findStateOpt resolves one vault state: it linear-scans the entry node's
// vault and charges scanCost per visited state. Write flows call it
// directly, paying the full scan cost without a read budget; reads go
// through scanVault.
func (n *Network) findStateOpt(entry *node, kind, key string) (chain.StateRef, chain.ContractState, bool) {
	var (
		outRef chain.StateRef
		outSt  chain.ContractState
		found  bool
	)
	visited := entry.vault.LinearScan(func(ref chain.StateRef, st chain.ContractState) bool {
		if st.Kind == kind && st.Key == key {
			outRef, outSt, found = ref, st, true
			return true
		}
		return false
	})
	if cost := time.Duration(visited) * n.cfg.scanCost; cost > 0 {
		n.env.Clock.Sleep(cost)
	}
	return outRef, outSt, found
}

// findState is findStateOpt for flows whose input must exist.
func (n *Network) findState(entry *node, kind, key string) (chain.StateRef, chain.ContractState, error) {
	ref, st, found := n.findStateOpt(entry, kind, key)
	if !found {
		return chain.StateRef{}, chain.ContractState{}, fmt.Errorf("%w: %q (%s)", iel.ErrAccountNotFound, key, kind)
	}
	return ref, st, nil
}

// parseBalanceDelta parses a stored balance and a delta argument.
func parseBalanceDelta(balance, delta string) (int64, int64, error) {
	bal, err := strconv.ParseInt(balance, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("corda: corrupt balance %q: %v", balance, err)
	}
	amt, err := strconv.ParseInt(delta, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("corda: bad amount %q", delta)
	}
	return bal, amt, nil
}

func formatBalance(v int64) string { return strconv.FormatInt(v, 10) }

// Preload implements systems.Driver: setup operations are issued as
// genesis UTXO transactions applied identically to every vault, so the
// resulting state references agree network-wide and later flows can
// consume them. KeyValue Sets become kv states; CreateAccounts become an
// account (checking) plus a savings state.
func (n *Network) Preload(ops []chain.Operation) error {
	for i, op := range ops {
		var outputs []chain.ContractState
		switch {
		case op.IEL == iel.KeyValueName && op.Function == iel.FnSet && len(op.Args) == 2:
			outputs = []chain.ContractState{{Kind: "kv", Key: op.Args[0], Value: op.Args[1], Owner: "preload"}}
		case op.IEL == iel.BankingAppName && op.Function == iel.FnCreateAccount && len(op.Args) == 3:
			outputs = []chain.ContractState{
				{Kind: "account", Key: op.Args[0], Value: op.Args[1], Owner: "preload"},
				{Kind: "savings", Key: op.Args[0], Value: op.Args[2], Owner: "preload"},
			}
		default:
			return fmt.Errorf("corda preload op %d: unsupported operation %s", i, op)
		}
		utx := chain.NewUTXOTransaction("preload", uint64(i), op, nil, outputs)
		for _, nd := range n.nodes {
			if err := nd.vault.Apply(utx); err != nil {
				return fmt.Errorf("corda preload op %d: %w", i, err)
			}
		}
	}
	return nil
}

// errScanBudget marks a vault scan abandoned for exceeding the read budget.
var errScanBudget = fmt.Errorf("corda: vault scan exceeds read budget")

// scanVault linear-scans the entry node's vault and charges scanCost per
// visited state — the paper's Corda read pathology. When a read budget is
// set and the vault holds more states than the flow can visit within its
// deadline, the scan is abandoned.
func (n *Network) scanVault(entry *node, kind, key string) (chain.StateRef, chain.ContractState, bool, error) {
	if b := n.cfg.readScanBudget; b > 0 && entry.vault.UnspentCount() > b {
		// The flow burns its whole budget before giving up.
		n.env.Clock.Sleep(time.Duration(b) * n.cfg.scanCost)
		return chain.StateRef{}, chain.ContractState{}, false, errScanBudget
	}
	ref, st, found := n.findStateOpt(entry, kind, key)
	return ref, st, found, nil
}

func (n *Network) deadlineExceeded(started time.Time) bool {
	return n.env.Clock.Since(started) > flowTimeout
}

// recordFailure counts one lost flow, classified by abort code for the
// conflict breakdown: notary/vault double spends become "double-spend",
// balance failures "insufficient-funds", everything else "flow-failed".
func (n *Network) recordFailure(err error) {
	code := systems.ClassifyAbort(err)
	if code == "" || code == systems.AbortExecFailed {
		code = systems.AbortFlowFailed
	}
	n.failed++
	n.conflicts[code]++
}

// ConflictCounts overrides the chassis default: failed flows by abort
// code. Corda flows are single-operation, so flow counts equal payload
// counts.
func (n *Network) ConflictCounts() map[string]uint64 {
	if len(n.conflicts) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(n.conflicts))
	for k, v := range n.conflicts {
		out[k] = v
	}
	return out
}

func (n *Network) recordTimeout() { n.timeout++ }

// LossStats reports flows lost to queue overflow, deadline, and failure.
func (n *Network) LossStats() (dropped, timedOut, failed uint64) {
	return n.dropped, n.timeout, n.failed
}

// flowBacklog is the chassis' admission-depth hook: the flow mailboxes'
// backlog summed across nodes.
func (n *Network) flowBacklog() int {
	depth := 0
	for _, nd := range n.nodes {
		depth += nd.queue.Len()
	}
	return depth
}

// VaultSize reports node i's unspent state count.
func (n *Network) VaultSize(i int) int { return n.nodes[i%len(n.nodes)].vault.UnspentCount() }
