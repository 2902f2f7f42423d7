package corda

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
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
	for confirmed.IsZero() && env.Clock.Since(start) < flowTimeout {
		env.Clock.Sleep(time.Millisecond)
	}
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
