package corda

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// start builds a network from cfg on a test env and starts it with a
// collector for client-1.
func start(t *testing.T, cfg config) (*Network, *systemstest.Collector) {
	t.Helper()
	env := systemstest.Env(t)
	n := build(env, cfg)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	return n, col
}

func TestEditionDefaults(t *testing.T) {
	env := systemstest.Env(t)
	osNet := NewOS(env, systems.Params{})
	entNet := NewEnterprise(env, systems.Params{})
	if osNet.flowWorkers != 1 {
		t.Fatalf("OS workers = %d, want 1 (single-threaded flows)", osNet.flowWorkers)
	}
	if entNet.flowWorkers != 8 {
		t.Fatalf("Enterprise workers = %d, want 8", entNet.flowWorkers)
	}
	if serial, parallel := 3*osNet.cfg.signProcessing, entNet.cfg.signProcessing; serial <= parallel {
		t.Fatalf("OS signs 3 parties in %v, Enterprise in %v: OS must be slower", serial, parallel)
	}
}

func TestSendPaymentConsumesStateViaNotary(t *testing.T) {
	n, col := start(t, entConfig())
	create := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnCreateAccount, "acc-0", "100", "0")
	if err := n.Submit(0, create); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)

	pay := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnSendPayment, "acc-0", "acc-1", "100")
	if err := n.Submit(0, pay); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 2, 10*time.Second)
	if n.notary.ConsumedCount() == 0 {
		t.Fatal("notary recorded no consumption")
	}
}

// flowLatency runs one do-nothing flow from cfg on a network of nodes and
// returns the virtual time from Submit to its client event.
func flowLatency(t *testing.T, cfg config, nodes int) time.Duration {
	t.Helper()
	env := systemstest.Env(t)
	env.Nodes = nodes
	n := build(env, cfg)
	var confirmed time.Time // written under the execution token
	n.Subscribe("client-1", func(systems.Event) { confirmed = env.Clock.Now() })
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	start := env.Clock.Now()
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	env.Clock.Sleep(flowTimeout)
	if confirmed.IsZero() {
		t.Fatalf("%v flow not confirmed within %v", cfg.edition, flowTimeout)
	}
	return confirmed.Sub(start)
}

// TestSerialSigningSlowerThanParallel: OS collects its 3 counterparties'
// signatures one after another, Enterprise all at once.
func TestSerialSigningSlowerThanParallel(t *testing.T) {
	if serial := flowLatency(t, osConfig(), 4); serial < 3*osSignProcessing {
		t.Fatalf("serial flow took %v, want >= %v (3 signers one after another)", serial, 3*osSignProcessing)
	}
	if parallel := flowLatency(t, entConfig(), 4); parallel >= 2*entSignProcessing {
		t.Fatalf("parallel flow took %v, want < %v (3 signers at once)", parallel, 2*entSignProcessing)
	}
}

// TestEveryOtherNodeSignsEachFlow: an OS flow signs serially, so on a
// network of N nodes it waits for exactly N-1 signatures.
func TestEveryOtherNodeSignsEachFlow(t *testing.T) {
	const sign = osSignProcessing
	for _, nodes := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			got := flowLatency(t, osConfig(), nodes)
			signers := time.Duration(nodes - 1)
			if got < signers*sign || got >= (signers+1)*sign {
				t.Fatalf("flow took %v, want [%v, %v) for %d signers",
					got, signers*sign, (signers+1)*sign, nodes-1)
			}
		})
	}
}

// partyLatency is a link model that puts each node its own one-way delay
// away from a node at no delay, so every counterparty of a flow entering
// there costs a distinct round trip.
type partyLatency map[string]time.Duration

func (l partyLatency) Delay(src, dst string) time.Duration { return l[src] + l[dst] }

// signingNet builds a four-node network of cfg whose counterparties, seen
// from node 0, cost 180, 240 and 210 ms of round trip on top of their flow
// processing.
func signingNet(t *testing.T, cfg config) (*Network, [4]time.Duration) {
	t.Helper()
	env := systemstest.Env(t)
	lat := partyLatency{"corda-node-1": 90 * time.Millisecond, "corda-node-2": 120 * time.Millisecond, "corda-node-3": 105 * time.Millisecond}
	env.Latency = lat
	var cost [4]time.Duration
	for i := 1; i < 4; i++ {
		cost[i] = 2*lat[fmt.Sprintf("corda-node-%d", i)] + cfg.signProcessing
	}
	return build(env, cfg), cost
}

// signingWait runs node 0's signature collection step by step, sleeping out
// each step's wait, and returns how long it waited and how it ended.
func signingWait(n *Network) (time.Duration, error) {
	start := n.env.Clock.Now()
	for next := 0; ; {
		wait, done, err := n.signStep(n.nodes[0], &next)
		n.env.Clock.Sleep(wait)
		if done || err != nil {
			return n.env.Clock.Since(start), err
		}
	}
}

// TestSigningWaitIsSumOrMax: Open Source waits for its counterparties one
// after another, the sum of their costs; Enterprise waits for all at once,
// the largest cost.
func TestSigningWaitIsSumOrMax(t *testing.T) {
	osNet, c := signingNet(t, osConfig())
	if got, err := signingWait(osNet); err != nil || got != c[1]+c[2]+c[3] {
		t.Fatalf("Open Source signing took %v (err %v), want the sum %v", got, err, c[1]+c[2]+c[3])
	}
	entNet, c := signingNet(t, entConfig())
	if got, err := signingWait(entNet); err != nil || got != c[2] {
		t.Fatalf("Enterprise signing took %v (err %v), want the largest cost %v", got, err, c[2])
	}
}

// TestCrashedCounterpartyFailsSigning: a crashed counterparty fails the
// flow. Open Source finds it in turn, after the signers before it; an
// Enterprise flow waits for every counterparty that is up, then fails.
func TestCrashedCounterpartyFailsSigning(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
		// want is the wait, given each counterparty's cost, with node 2 down.
		want func(c [4]time.Duration) time.Duration
	}{
		{"open source", osConfig(), func(c [4]time.Duration) time.Duration { return c[1] }},
		{"enterprise", entConfig(), func(c [4]time.Duration) time.Duration { return max(c[1], c[3]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, c := signingNet(t, tc.cfg)
			if err := n.CrashNode(2); err != nil {
				t.Fatal(err)
			}
			got, err := signingWait(n)
			if err == nil || !strings.Contains(err.Error(), "corda-node-2") {
				t.Fatalf("err = %v, want corda-node-2 unreachable", err)
			}
			if want := tc.want(c); got != want {
				t.Fatalf("failed after %v, want %v", got, want)
			}
		})
	}
}

func TestQueueOverflowDropsSilently(t *testing.T) {
	cfg := osConfig()
	cfg.queueDepth = 2
	n, _ := start(t, cfg)
	for i := 0; i < 30; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatalf("Submit must not error on overflow, got %v", err)
		}
	}
	dropped, _, _ := n.LossStats()
	if dropped == 0 {
		t.Fatal("overflow never dropped flows")
	}
}

// onNode lists, by their index on node i, those of ws that are node i's
// workers.
func onNode(n *Network, i int, ws []*worker) []int {
	mine := n.workers[i*n.flowWorkers : (i+1)*n.flowWorkers]
	var out []int
	for _, w := range ws {
		if j := slices.Index(mine, w); j >= 0 {
			out = append(out, j)
		}
	}
	return out
}

// busy lists node i's workers that are running a flow, by index.
func busy(n *Network, i int) []int {
	var ws []*worker
	for _, w := range n.workers {
		if w.f.tx != nil {
			ws = append(ws, w)
		}
	}
	return onNode(n, i, ws)
}

// TestIdleWorkersTakeFlowsInIdleOrder: a Submit wakes the entry node's idle
// workers in the order they went idle and the first takes the flow; the
// others stay idle where they are, and a worker whose flow ends goes idle
// behind them.
func TestIdleWorkersTakeFlowsInIdleOrder(t *testing.T) {
	n, col := start(t, entConfig())
	clk := n.env.Clock
	check := func(when, wantBusy, wantIdle string) {
		t.Helper()
		if got := fmt.Sprint(busy(n, 0)); got != wantBusy {
			t.Fatalf("%s: busy workers %s, want %s", when, got, wantBusy)
		}
		if got := fmt.Sprint(onNode(n, 0, n.nodes[0].idle)); got != wantIdle {
			t.Fatalf("%s: idle workers %s, want %s", when, got, wantIdle)
		}
	}
	check("after Start", "[]", "[0 1 2 3 4 5 6 7]")
	submit := func(seq uint64) {
		t.Helper()
		if err := n.Submit(0, chain.NewSingleOp("client-1", seq, iel.DoNothingName, iel.FnDoNothing)); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(time.Nanosecond) // the woken workers run
	}
	submit(0)
	check("first flow", "[0]", "[1 2 3 4 5 6 7]")
	submit(1)
	check("second flow", "[0 1]", "[2 3 4 5 6 7]")
	col.Wait(t, 2, flowTimeout)
	clocktest.Until(t, clk, flowTimeout, "both flows end", func() bool { return len(busy(n, 0)) == 0 })
	check("both flows over", "[]", "[2 3 4 5 6 7 0 1]")
	submit(2)
	check("third flow", "[2]", "[3 4 5 6 7 0 1]")
}

// TestFinishedWorkerTakesNextQueuedFlow: the one Open Source worker, its
// flow over, starts the next queued flow in the same run, so each flow's
// queue wait ends at the instant the flow before it was decided.
func TestFinishedWorkerTakesNextQueuedFlow(t *testing.T) {
	n, col := start(t, osConfig())
	var txs []*chain.Transaction
	for i := uint64(0); i < 3; i++ {
		tx := chain.NewSingleOp("client-1", i, iel.DoNothingName, iel.FnDoNothing)
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	col.Wait(t, 3, 3*flowTimeout)
	for i := 1; i < len(txs); i++ {
		began, prev := txs[i].Stages.At(chain.StageQueue), txs[i-1].Stages.At(chain.StageConsensus)
		if prev == 0 || began != prev {
			t.Fatalf("flow %d began at %d, want the instant flow %d was decided, %d", i, began, i-1, prev)
		}
	}
}

// TestQueueHoldsQueueDepthFlows: a node's queue holds exactly queueDepth
// flows its workers have not taken; each Submit beyond that is dropped, and
// every flow it held runs.
func TestQueueHoldsQueueDepthFlows(t *testing.T) {
	cfg := osConfig()
	cfg.queueDepth = 2
	n, col := start(t, cfg)
	// The test holds the clock's token, so the worker takes nothing until
	// it sleeps: the first two flows fill the queue.
	for i := uint64(0); i < 5; i++ {
		if err := n.Submit(0, chain.NewSingleOp("client-1", i, iel.DoNothingName, iel.FnDoNothing)); err != nil {
			t.Fatal(err)
		}
	}
	if dropped, _, _ := n.LossStats(); dropped != 3 {
		t.Fatalf("dropped %d flows, want the 3 beyond a queue of 2", dropped)
	}
	n.env.Clock.Sleep(3 * flowTimeout)
	if got := col.Len(); got != 2 {
		t.Fatalf("confirmed %d flows, want the 2 the queue held", got)
	}
}

// TestStopDisarmsEveryWorker: Stop in the middle of flows leaves no worker
// deadline armed, and the flows in flight never finish.
func TestStopDisarmsEveryWorker(t *testing.T) {
	env := systemstest.Env(t)
	n := build(env, entConfig())
	col := systemstest.Collect(env, n, "client-1")
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if err := n.Submit(int(i), chain.NewSingleOp("client-1", i, iel.DoNothingName, iel.FnDoNothing)); err != nil {
			t.Fatal(err)
		}
	}
	env.Clock.Sleep(time.Millisecond)
	if len(busy(n, 0)) == 0 || env.Clock.PendingWaiters() == 0 {
		t.Fatal("no flow is waiting 1ms in: Stop below disarms nothing")
	}
	n.Stop()
	if got := env.Clock.PendingWaiters(); got != 0 {
		t.Fatalf("%d deadlines armed after Stop, want 0", got)
	}
	env.Clock.Sleep(flowTimeout)
	if got := col.Len(); got != 0 {
		t.Fatalf("%d flows confirmed after Stop, want 0", got)
	}
}
