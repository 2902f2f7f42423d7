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
	"slices"
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

// node is one Corda node: its vault, its flow queue and its idle workers.
type node struct {
	*systems.Node
	vault *chain.Vault
	// jobs[head:] is the flow queue, oldest first, bounded by the
	// network's queueDepth; the slice is reused from the start whenever the
	// queue empties. idle lists the workers with no flow to run, in the
	// order they went idle.
	jobs []*chain.Transaction
	head int
	idle []*worker
}

// queued reports how many flows wait in the node's queue.
func (nd *node) queued() int { return len(nd.jobs) - nd.head }

// take pops the oldest queued flow, nil when there is none.
func (nd *node) take() *chain.Transaction {
	if nd.queued() == 0 {
		return nil
	}
	tx := nd.jobs[nd.head]
	nd.jobs[nd.head] = nil
	if nd.head++; nd.head == len(nd.jobs) {
		nd.jobs, nd.head = nd.jobs[:0], 0
	}
	return tx
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

	nodes   []*node
	workers []*worker
	notary  *notary.Service

	dropped   uint64            // flows lost to queue overflow
	timeout   uint64            // flows lost to deadline
	failed    uint64            // flows lost to execution/notary failure
	conflicts map[string]uint64 // failed flows by canonical abort code
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
	}
	n.Cluster = systems.NewCluster(cfg.edition.String(), systems.NodeIDs("corda-node", env.Nodes), env, n.flowBacklog)
	for i := 0; i < env.Nodes; i++ {
		nd := &node{Node: n.Node(i), vault: chain.NewVault()}
		n.nodes = append(n.nodes, nd)
		for j := 0; j < workers; j++ {
			w := &worker{n: n, nd: nd}
			w.ev = clock.NewEvent(env.Clock, "corda/"+nd.ID+"/w"+strconv.Itoa(j), w.run)
			n.workers = append(n.workers, w)
		}
	}
	return n
}

// Start implements systems.Driver: every flow worker goes idle on its
// node's queue.
func (n *Network) Start() error {
	if !n.MarkStarted() {
		return nil
	}
	for _, w := range n.workers {
		w.goIdle()
	}
	return nil
}

// Stop implements systems.Driver: the workers stop, and the flows they were
// running are lost with the process.
func (n *Network) Stop() {
	if !n.MarkStopped() {
		return
	}
	for _, w := range n.workers {
		w.ev.Stop()
	}
}

// Submit implements systems.Driver: the flow enqueues on the entry node's
// flow workers, and the idle ones are woken in the order they went idle;
// the first to run takes it. Overflow drops the flow silently (lost end to
// end).
func (n *Network) Submit(entryNode int, tx *chain.Transaction) error {
	i, err := n.Entry(entryNode)
	if err != nil {
		return err // ErrNodeDown: the RPC connection is refused
	}
	nd := n.nodes[i]
	if nd.queued() >= max(n.cfg.queueDepth, 1) {
		n.dropped++
		return nil // silent: the RPC accepted the flow, the node shed it
	}
	nd.jobs = append(nd.jobs, tx)
	tx.Stages.Mark(chain.StageSubmit, n.env.Clock.Now())
	for _, w := range nd.idle {
		w.ev.Trigger()
	}
	return nil
}

// worker is one flow worker of a node, a clock event: it runs its flow up
// to the flow's next wait and arms itself for the end of it, a wait of zero
// going on at once. A worker whose flow ends takes the next queued job in
// the same run, and with none queued goes idle until a Submit wakes it.
type worker struct {
	n    *Network
	nd   *node
	ev   *clock.Event
	f    flow // f.tx is nil while the worker has no flow
	idle bool
}

func (w *worker) run() {
	for {
		if w.f.tx != nil {
			if wait := w.step(); wait > 0 {
				w.ev.After(wait)
				return
			}
			w.f = flow{}
		}
		tx := w.nd.take()
		if tx == nil {
			w.goIdle()
			return
		}
		if w.idle {
			w.idle = false
			w.nd.idle = slices.DeleteFunc(w.nd.idle, func(x *worker) bool { return x == w })
		}
		w.begin(tx)
	}
}

// goIdle puts the worker at the end of its node's idle list, unless it is
// there already.
func (w *worker) goIdle() {
	if !w.idle {
		w.idle = true
		w.nd.idle = append(w.nd.idle, w)
	}
}

// flow is one flow in progress, between its waits.
type flow struct {
	tx      *chain.Transaction
	stage   flowStage
	started time.Time
	built   time.Time
	// lookups[:nlookups] are the vault lookups the build makes, in order;
	// looked of them are made.
	lookups  [3]lookup
	nlookups int
	looked   int
	utx      *chain.UTXOTransaction
	readOnly bool
	next     int   // the counterparty or the vault the flow is at
	err      error // the flow's failure, recorded once its current wait has passed
	ev       *systems.Event
	failed   *bool
}

// flowStage is what a flow does next.
type flowStage uint8

const (
	flowBuild    flowStage = iota // vault lookups, then the UTXO transaction
	flowSign                      // collect the counterparties' signatures
	flowSigned                    // the signatures are in
	flowNotarise                  // the notary round trip has passed
	flowDecide                    // the outcome is decided
	flowHop                       // finality: the hop to nodes[next]
	flowCommit                    // finality: commit to nodes[next]
)

// begin starts a flow on the worker's node: a flow worker picked the job
// up, so the queue wait ends here.
func (w *worker) begin(tx *chain.Transaction) {
	w.f.tx = tx
	w.f.started = w.n.env.Clock.Now()
	tx.Stages.Mark(chain.StageQueue, w.f.started)
	w.f.err = w.f.plan(tx.Ops[0])
}

// step runs the flow up to its next wait and returns it, zero once the
// flow is over. Phase 1 builds the UTXO transaction, paying vault-scan costs
// for reads and input resolution; phase 2 collects signatures from every
// other node, as the benchmarked deployments require; phase 3 notarises
// when the flow consumes states (§5.8.1: only state-consuming flows need
// the notary); phase 4 is finality, distributing the states to every vault.
func (w *worker) step() time.Duration {
	n, f := w.n, &w.f
	for {
		if f.err != nil {
			n.recordFailure(f.err)
			return 0
		}
		switch f.stage {
		case flowBuild:
			if f.looked < f.nlookups {
				l := &f.lookups[f.looked]
				f.looked++
				var wait time.Duration
				if wait, f.err = n.lookup(w.nd, l); wait > 0 {
					return wait
				}
				continue
			}
			if f.utx, f.readOnly, f.err = f.build(); f.err != nil {
				continue
			}
			// Flow build is Corda's execution phase (vault scans, contract
			// logic).
			f.built = n.env.Clock.Now()
			f.tx.Stages.Mark(chain.StageExecute, f.built)
			if n.deadlineExceeded(f.started) {
				n.recordTimeout()
				return 0
			}
			f.stage, f.next = flowSign, 0
		case flowSign:
			wait, done, err := n.signStep(w.nd, &f.next)
			if f.err = err; done {
				f.stage = flowSigned
			}
			if wait > 0 {
				return wait
			}
		case flowSigned:
			if n.deadlineExceeded(f.started) {
				n.recordTimeout()
				return 0
			}
			f.stage = flowDecide
			if f.utx != nil && len(f.utx.Inputs) > 0 {
				f.stage = flowNotarise
				rtt := n.env.Latency.Delay(w.nd.ID, n.notary.Name) + n.env.Latency.Delay(n.notary.Name, w.nd.ID)
				if rtt > 0 {
					return rtt
				}
			}
		case flowNotarise:
			f.err = n.notary.Notarise(f.utx.ID, f.utx.Inputs) // a double spend fails the flow
			f.stage = flowDecide
		case flowDecide:
			if n.deadlineExceeded(f.started) {
				n.recordTimeout()
				return 0
			}
			// Signature collection plus notarisation is Corda's
			// ordering/consensus analogue: after this instant the flow's
			// outcome is decided.
			decided := n.env.Clock.Now()
			f.tx.Stages.Mark(chain.StageConsensus, decided)
			// Blockless Corda has no rounds; the consensus-analogue span
			// covers one sampled flow's signing plus notarisation, keyed to
			// its transaction.
			if tr := n.env.Trace; tr.Sampled(trace.Key(f.tx.ID)) {
				tr.Add(trace.Span{Key: trace.Key(f.tx.ID), Name: "flow:sign+notarise", Cat: "consensus",
					Proc: n.Name(), Lane: "consensus", Start: f.built.UnixNano(), End: decided.UnixNano()})
			}
			// One event per flow, shared by every node's commit work.
			f.ev = &systems.Event{
				TxID:      f.tx.ID,
				Client:    f.tx.Client,
				Committed: true,
				ValidOK:   true,
				OpCount:   f.tx.OpCount(),
				Stages:    &f.tx.Stages,
			}
			// Reads complete on the entry node alone.
			if f.readOnly || f.utx == nil {
				n.Hub.EmitDirect(*f.ev, decided)
				return 0
			}
			// One flow counts as one failure no matter how many vaults
			// reject its states, including a crashed node's deferred apply
			// replayed at restart.
			f.failed = new(bool)
			f.stage, f.next = flowHop, 0
		case flowHop:
			if f.next == len(n.nodes) {
				return 0
			}
			f.stage = flowCommit
			if nd := n.nodes[f.next]; nd != w.nd {
				// State distribution crosses the network once per node.
				if d := n.env.Latency.Delay(w.nd.ID, nd.ID); d > 0 {
					return d
				}
			}
		case flowCommit:
			// A node that crashed between signing and finality receives
			// the states when it restarts (Corda's message-queue
			// redelivery). Each flow is one WAL record: Corda persists per
			// transaction, not per block.
			nd := n.nodes[f.next]
			systems.CommitTo(&nd.Gate, 1, finality{n, nd, f.utx, f.ev, f.failed}, applyFinality)
			f.stage, f.next = flowHop, f.next+1
		}
	}
}

// signStep is one step of a flow's signature collection, starting at
// counterparty *next: it returns the wait for the counterparties' signatures
// that step covers, whether the collection is done after it, and the error
// that fails the flow once the wait has passed. Each counterparty's
// signature costs one round trip plus its flow processing. Nothing verifies
// a signature, so none is computed; the wait is its modeled cost. Corda
// requires every counterparty's signature, so a crashed signer fails the
// whole flow and one node outage halts all write flows — the flip side of
// the paper's §6 observation that requiring fewer signers is where Corda's
// scalability lies.
//
// Open Source asks the counterparties one after another in node order
// ("Corda OS does this serially", §5.1), a step each: the wait is the sum of
// their costs, and the first crashed one fails the flow once those before
// it have signed. Enterprise asks them all at once (§5.2), in one step: the
// wait is the largest cost among those that are up, after which the first
// crashed one in node order fails the flow. That sum against a max is the
// editions' 10x gap.
func (n *Network) signStep(entry *node, next *int) (wait time.Duration, done bool, err error) {
	var down *node
	for ; *next < len(n.nodes); *next++ {
		p := n.nodes[*next]
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
			*next++
			return cost, false, nil
		}
		wait = max(wait, cost)
	}
	if down != nil {
		err = fmt.Errorf("corda: counterparty %s unreachable", down.ID)
	}
	return wait, true, err
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

// lookup is one vault query of a flow's build and its result: the state of
// kind with key, the flow's argument arg.
type lookup struct {
	kind, key string
	arg       int
	mode      lookupMode
	ref       chain.StateRef
	st        chain.ContractState
	found     bool
}

// lookupMode says what a lookup's flow makes of a missing state.
type lookupMode uint8

const (
	// lookupOptional is a write's duplicate check: absence is fine.
	lookupOptional lookupMode = iota
	// lookupInput resolves an input the flow consumes, which must exist.
	lookupInput
	// lookupRead is a read flow's scan, bounded by the read budget; the
	// flow's build reports absence.
	lookupRead
)

// flowShape is what the flow of one operation needs: its argument count
// and the vault lookups its build makes, in order.
type flowShape struct {
	args  int
	looks []lookup
}

// flowShapes lists every operation a Corda flow runs but DoNothing, by IEL
// and function. The paper's KeyValue-Set "iteratively check[s] whether a
// KeyValue pair exists" just like Get (§5.1), so the write pays the
// duplicate-check scan; unlike a read's, it is not budget-bounded.
var flowShapes = map[[2]string]flowShape{
	{iel.KeyValueName, iel.FnSet}:               {2, []lookup{{kind: "kv", mode: lookupOptional}}},
	{iel.KeyValueName, iel.FnGet}:               {1, []lookup{{kind: "kv", mode: lookupRead}}},
	{iel.BankingAppName, iel.FnCreateAccount}:   {3, nil},
	{iel.BankingAppName, iel.FnSendPayment}:     {3, []lookup{{kind: "account", mode: lookupRead}}},
	{iel.BankingAppName, iel.FnBalance}:         {1, []lookup{{kind: "account", mode: lookupRead}}},
	{iel.BankingAppName, iel.FnTransactSavings}: {2, []lookup{{kind: "savings", mode: lookupInput}}},
	{iel.BankingAppName, iel.FnDepositChecking}: {2, []lookup{{kind: "account", mode: lookupInput}}},
	{iel.BankingAppName, iel.FnWriteCheck}:      {2, []lookup{{kind: "account", mode: lookupInput}, {kind: "savings", mode: lookupInput}}},
	{iel.BankingAppName, iel.FnAmalgamate}: {2, []lookup{{kind: "account", mode: lookupInput},
		{kind: "savings", mode: lookupInput}, {kind: "account", arg: 1, mode: lookupInput}}},
}

// plan checks op's arguments and lists the vault lookups its flow makes
// before it builds, in the order it makes them.
func (f *flow) plan(op chain.Operation) error {
	if op.IEL == iel.DoNothingName {
		return nil
	}
	shape, ok := flowShapes[[2]string{op.IEL, op.Function}]
	if !ok {
		return fmt.Errorf("corda: unsupported operation %s", op)
	}
	if len(op.Args) != shape.args {
		return fmt.Errorf("corda: %s wants %d args", op.Function, shape.args)
	}
	for _, l := range shape.looks {
		l.key = op.Args[l.arg]
		f.lookups[f.nlookups] = l
		f.nlookups++
	}
	return nil
}

// build translates the flow's IEL operation, planned and its lookups made,
// into a UTXO transaction. It returns utx == nil with readOnly == true for
// pure reads.
func (f *flow) build() (*chain.UTXOTransaction, bool, error) {
	tx, l := f.tx, f.lookups[:f.nlookups]
	op := tx.Ops[0]
	switch {
	case op.IEL == iel.DoNothingName:
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, nil,
			[]chain.ContractState{{Kind: "noop", Key: crypto.FormatID("noop", tx.ID)}})
		return utx, false, nil

	case op.Function == iel.FnSet:
		// The flow proceeds once the key is (for the paper's partitioned
		// scheme, always) found absent. When the key does exist — the
		// contention plane's shared key spaces — the flow consumes the old
		// state and reissues it, so concurrent writers of one hot key race
		// at the notary instead of silently accumulating duplicates.
		var inputs []chain.StateRef
		if l[0].found {
			inputs = []chain.StateRef{l[0].ref}
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, inputs,
			[]chain.ContractState{{Kind: "kv", Key: op.Args[0], Value: op.Args[1], Owner: tx.Client}})
		return utx, false, nil

	case op.Function == iel.FnGet:
		if !l[0].found {
			return nil, true, fmt.Errorf("corda: key %q not found", op.Args[0])
		}
		return nil, true, nil

	case op.Function == iel.FnCreateAccount:
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op, nil, []chain.ContractState{
			{Kind: "account", Key: op.Args[0], Value: op.Args[1], Owner: tx.Client},
			{Kind: "savings", Key: op.Args[0], Value: op.Args[2], Owner: tx.Client},
		})
		return utx, false, nil

	case op.Function == iel.FnSendPayment:
		if !l[0].found {
			return nil, false, fmt.Errorf("corda: account %q not found", op.Args[0])
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{l[0].ref},
			[]chain.ContractState{{Kind: "account", Key: op.Args[1], Value: l[0].st.Value, Owner: tx.Client}})
		return utx, false, nil

	case op.Function == iel.FnBalance:
		if !l[0].found {
			return nil, true, fmt.Errorf("corda: account %q not found", op.Args[0])
		}
		return nil, true, nil

	case op.Function == iel.FnTransactSavings:
		// The flow consumes the savings state and reissues it with the new
		// balance; concurrent flows on the same account race at the notary.
		id := op.Args[0]
		bal, amt, err := parseBalanceDelta(l[0].st.Value, op.Args[1])
		if err != nil {
			return nil, false, err
		}
		if bal+amt < 0 {
			return nil, false, fmt.Errorf("%w: %q savings %d, delta %d", iel.ErrInsufficientFunds, id, bal, amt)
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{l[0].ref},
			[]chain.ContractState{{Kind: "savings", Key: id, Value: formatBalance(bal + amt), Owner: tx.Client}})
		return utx, false, nil

	case op.Function == iel.FnDepositChecking:
		id := op.Args[0]
		bal, amt, err := parseBalanceDelta(l[0].st.Value, op.Args[1])
		if err != nil || amt < 0 {
			return nil, false, fmt.Errorf("corda: bad deposit amount %q", op.Args[1])
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{l[0].ref},
			[]chain.ContractState{{Kind: "account", Key: id, Value: formatBalance(bal + amt), Owner: tx.Client}})
		return utx, false, nil

	case op.Function == iel.FnWriteCheck:
		// The check clears against checking + savings but only the checking
		// state is consumed and reissued.
		id := op.Args[0]
		checking, amt, err := parseBalanceDelta(l[0].st.Value, op.Args[1])
		if err != nil || amt < 0 {
			return nil, false, fmt.Errorf("corda: bad check amount %q", op.Args[1])
		}
		savings, _ := strconv.ParseInt(l[1].st.Value, 10, 64)
		if checking+savings < amt {
			return nil, false, fmt.Errorf("%w: %q has %d, check for %d", iel.ErrInsufficientFunds, id, checking+savings, amt)
		}
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{l[0].ref},
			[]chain.ContractState{{Kind: "account", Key: id, Value: formatBalance(checking - amt), Owner: tx.Client}})
		return utx, false, nil

	default: // Amalgamate, the one operation plan leaves
		// Consumes three states across two accounts — the family's widest
		// notary conflict footprint.
		src, dst := op.Args[0], op.Args[1]
		sc, _ := strconv.ParseInt(l[0].st.Value, 10, 64)
		ss, _ := strconv.ParseInt(l[1].st.Value, 10, 64)
		dc, _ := strconv.ParseInt(l[2].st.Value, 10, 64)
		utx := chain.NewUTXOTransaction(tx.Client, tx.Seq, op,
			[]chain.StateRef{l[0].ref, l[1].ref, l[2].ref},
			[]chain.ContractState{
				{Kind: "account", Key: src, Value: "0", Owner: tx.Client},
				{Kind: "savings", Key: src, Value: "0", Owner: tx.Client},
				{Kind: "account", Key: dst, Value: formatBalance(dc + sc + ss), Owner: tx.Client},
			})
		return utx, false, nil
	}
}

// errScanBudget marks a vault scan abandoned for exceeding the read budget.
var errScanBudget = fmt.Errorf("corda: vault scan exceeds read budget")

// lookup makes l on the entry node's vault: it linear-scans the vault and
// returns the scan's cost, scanCost per visited state — the paper's Corda
// read pathology — and the error that fails the flow once the scan's time
// has passed: a missing input, or a read over budget. When a read budget is
// set and the vault holds more states than a read flow can visit within its
// deadline, the scan is abandoned, after burning the whole budget.
func (n *Network) lookup(entry *node, l *lookup) (time.Duration, error) {
	if b := n.cfg.readScanBudget; l.mode == lookupRead && b > 0 && entry.vault.UnspentCount() > b {
		return time.Duration(b) * n.cfg.scanCost, errScanBudget
	}
	visited := entry.vault.LinearScan(func(ref chain.StateRef, st chain.ContractState) bool {
		if st.Kind == l.kind && st.Key == l.key {
			l.ref, l.st, l.found = ref, st, true
			return true
		}
		return false
	})
	var err error
	if !l.found && l.mode == lookupInput {
		err = fmt.Errorf("%w: %q (%s)", iel.ErrAccountNotFound, l.key, l.kind)
	}
	return time.Duration(visited) * n.cfg.scanCost, err
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

// flowBacklog is the chassis' admission-depth hook: the flow queues'
// backlog summed across nodes.
func (n *Network) flowBacklog() int {
	depth := 0
	for _, nd := range n.nodes {
		depth += nd.queued()
	}
	return depth
}

// VaultSize reports node i's unspent state count.
func (n *Network) VaultSize(i int) int { return n.nodes[i%len(n.nodes)].vault.UnspentCount() }
