package corda

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
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
// returns the virtual time from Submit to its client event, and how often
// the clock handed its token to a goroutine meanwhile.
func flowLatency(t *testing.T, cfg config, nodes int) (time.Duration, int64) {
	t.Helper()
	env := systemstest.Env(t)
	env.Nodes = nodes
	n := build(env, cfg)
	var confirmed time.Time // written under the execution token
	done := clock.NewGate(env.Clock)
	n.Subscribe("client-1", func(systems.Event) {
		confirmed = env.Clock.Now()
		done.Close()
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	// Let the flow workers reach their queues, so the counts below are the
	// flow's alone.
	env.Clock.Sleep(time.Millisecond)
	start := env.Clock.Now()
	before := env.Clock.KernelStats()
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	deadline := env.Clock.NewTimerAt(start.Add(flowTimeout))
	defer deadline.Stop()
	clock.Await(env.Clock, done, deadline)
	if confirmed.IsZero() {
		t.Fatalf("%v flow not confirmed within %v", cfg.edition, flowTimeout)
	}
	return confirmed.Sub(start), env.Clock.KernelStats().Handoffs - before.Handoffs
}

// TestSerialSigningSlowerThanParallel: OS collects its 3 counterparties'
// signatures one after another, Enterprise all at once.
func TestSerialSigningSlowerThanParallel(t *testing.T) {
	if serial, _ := flowLatency(t, osConfig(), 4); serial < 3*osSignProcessing {
		t.Fatalf("serial flow took %v, want >= %v (3 signers one after another)", serial, 3*osSignProcessing)
	}
	if parallel, _ := flowLatency(t, entConfig(), 4); parallel >= 2*entSignProcessing {
		t.Fatalf("parallel flow took %v, want < %v (3 signers at once)", parallel, 2*entSignProcessing)
	}
}

// TestEveryOtherNodeSignsEachFlow: an OS flow signs serially, so on a
// network of N nodes it waits for exactly N-1 signatures.
func TestEveryOtherNodeSignsEachFlow(t *testing.T) {
	const sign = osSignProcessing
	for _, nodes := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			got, _ := flowLatency(t, osConfig(), nodes)
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

// signingWait runs node 0's signature collection and returns how long it
// waited and how it ended.
func signingWait(n *Network) (time.Duration, error) {
	start := n.env.Clock.Now()
	err := n.collectSignatures(n.nodes[0])
	return n.env.Clock.Since(start), err
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

// TestEnterpriseSigningHandoffsDoNotGrowWithNodes: an Enterprise flow waits
// for its counterparties on its own worker, so the scheduler hands the
// token over as often for a flow on 16 nodes as on 4.
func TestEnterpriseSigningHandoffsDoNotGrowWithNodes(t *testing.T) {
	_, small := flowLatency(t, entConfig(), 4)
	_, large := flowLatency(t, entConfig(), 16)
	if large > small {
		t.Fatalf("one Enterprise flow took %d hand-offs on 16 nodes, %d on 4: signing costs a hand-off per counterparty",
			large, small)
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
