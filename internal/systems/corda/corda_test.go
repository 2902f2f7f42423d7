package corda

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
)

type collector struct {
	mu     sync.Mutex
	events []systems.Event
}

func (c *collector) add(e systems.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func (c *collector) wait(t *testing.T, want int, timeout time.Duration) []systems.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.events)
		c.mu.Unlock()
		if n >= want {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]systems.Event, len(c.events))
			copy(out, c.events)
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("received %d events, want %d", c.len(), want)
	return nil
}

// fastConfig returns a config with millisecond-scale processing for tests.
func fastConfig(edition Edition) Config {
	return Config{
		Edition:        edition,
		SignProcessing: time.Millisecond,
		ScanCost:       time.Microsecond,
		FlowTimeout:    5 * time.Second,
	}
}

func newNetwork(t *testing.T, cfg Config) (*Network, *collector) {
	t.Helper()
	n := New(cfg)
	col := &collector{}
	n.Subscribe("client-1", col.add)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, col
}

func TestEditionNames(t *testing.T) {
	if NewOS(Config{}).Name() != systems.NameCordaOS {
		t.Fatal("OS name wrong")
	}
	if NewEnterprise(Config{}).Name() != systems.NameCordaEnt {
		t.Fatal("Enterprise name wrong")
	}
}

func TestEditionDefaults(t *testing.T) {
	osNet := NewOS(Config{})
	entNet := NewEnterprise(Config{})
	if osNet.flowWorkers != 1 {
		t.Fatalf("OS workers = %d, want 1 (single-threaded flows)", osNet.flowWorkers)
	}
	if entNet.flowWorkers != 8 {
		t.Fatalf("Enterprise workers = %d, want 8", entNet.flowWorkers)
	}
	if osNet.cfg.SignProcessing <= entNet.cfg.SignProcessing {
		t.Fatal("OS signing must be slower than Enterprise")
	}
}

func TestWriteFlowCommitsToAllVaults(t *testing.T) {
	n, col := newNetwork(t, fastConfig(Enterprise))
	tx := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)
	for i := 0; i < 4; i++ {
		if n.VaultSize(i) != 1 {
			t.Fatalf("node %d vault size = %d, want 1", i, n.VaultSize(i))
		}
	}
}

func TestReadFlowFindsWrittenState(t *testing.T) {
	n, col := newNetwork(t, fastConfig(Enterprise))
	set := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, set); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)

	get := chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnGet, "k")
	if err := n.Submit(0, get); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 2, 10*time.Second)
}

func TestReadOfMissingKeyIsLost(t *testing.T) {
	n, col := newNetwork(t, fastConfig(Enterprise))
	get := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnGet, "never-set")
	if err := n.Submit(0, get); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if col.len() != 0 {
		t.Fatal("failed read produced an event")
	}
	_, _, failed := n.LossStats()
	if failed == 0 {
		t.Fatal("failure not recorded")
	}
}

func TestSendPaymentConsumesStateViaNotary(t *testing.T) {
	n, col := newNetwork(t, fastConfig(Enterprise))
	create := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnCreateAccount, "acc-0", "100", "0")
	if err := n.Submit(0, create); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)

	pay := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnSendPayment, "acc-0", "acc-1", "100")
	if err := n.Submit(0, pay); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 2, 10*time.Second)
	if n.notary.ConsumedCount() == 0 {
		t.Fatal("notary recorded no consumption")
	}
}

func TestDoubleSpendRejectedByNotary(t *testing.T) {
	n, col := newNetwork(t, fastConfig(Enterprise))
	create := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnCreateAccount, "acc-0", "100", "0")
	if err := n.Submit(0, create); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)

	// Two concurrent payments from the same account race on the same input
	// state: at most one survives.
	pay1 := chain.NewSingleOp("client-1", 1, iel.BankingAppName, iel.FnSendPayment, "acc-0", "acc-1", "100")
	pay2 := chain.NewSingleOp("client-1", 2, iel.BankingAppName, iel.FnSendPayment, "acc-0", "acc-2", "100")
	if err := n.Submit(0, pay1); err != nil {
		t.Fatal(err)
	}
	if err := n.Submit(1, pay2); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 2, 10*time.Second)
	time.Sleep(100 * time.Millisecond)
	if got := col.len(); got != 2 {
		t.Fatalf("events = %d, want 2 (create + exactly one payment)", got)
	}
	_, _, failed := n.LossStats()
	if failed == 0 {
		t.Fatal("losing payment not recorded as failed")
	}
}

// virtualFlowLatency runs one do-nothing flow on an AutoVirtual clock and
// returns the virtual time from Submit to its client event, so host load
// cannot move the number.
func virtualFlowLatency(t *testing.T, cfg Config) time.Duration {
	t.Helper()
	av := clock.NewAutoVirtual()
	h := clock.Register(av, "client-1")
	defer h.Close()
	cfg.Clock = av
	n := New(cfg)
	var confirmed time.Time // written under the execution token
	n.Subscribe("client-1", func(systems.Event) { confirmed = av.Now() })
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	start := av.Now()
	tx := chain.NewSingleOp("client-1", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	for confirmed.IsZero() && av.Since(start) < cfg.FlowTimeout {
		av.Sleep(time.Millisecond)
	}
	if confirmed.IsZero() {
		t.Fatalf("%v flow not confirmed within %v", cfg.Edition, cfg.FlowTimeout)
	}
	return confirmed.Sub(start)
}

// TestSerialSigningSlowerThanParallel: OS collects its 3 counterparties'
// signatures one after another, Enterprise all at once.
func TestSerialSigningSlowerThanParallel(t *testing.T) {
	const sign = 10 * time.Millisecond
	measure := func(edition Edition) time.Duration {
		cfg := fastConfig(edition)
		cfg.SignProcessing = sign
		return virtualFlowLatency(t, cfg)
	}
	if serial := measure(OpenSource); serial < 3*sign {
		t.Fatalf("serial flow took %v, want >= %v (3 signers one after another)", serial, 3*sign)
	}
	if parallel := measure(Enterprise); parallel >= 2*sign {
		t.Fatalf("parallel flow took %v, want < %v (3 signers at once)", parallel, 2*sign)
	}
}

// TestEveryOtherNodeSignsEachFlow: an OS flow signs serially, so on a
// network of N nodes it waits for exactly N-1 signatures.
func TestEveryOtherNodeSignsEachFlow(t *testing.T) {
	const sign = 10 * time.Millisecond
	for _, nodes := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			cfg := fastConfig(OpenSource)
			cfg.Nodes = nodes
			cfg.SignProcessing = sign
			got := virtualFlowLatency(t, cfg)
			signers := time.Duration(nodes - 1)
			if got < signers*sign || got >= (signers+1)*sign {
				t.Fatalf("flow took %v, want [%v, %v) for %d signers",
					got, signers*sign, (signers+1)*sign, nodes-1)
			}
		})
	}
}

func TestReadScanBudgetAbandonsReadsOnLargeVault(t *testing.T) {
	cfg := fastConfig(OpenSource)
	cfg.ScanCost = 10 * time.Microsecond
	cfg.ReadScanBudget = 10
	n, col := newNetwork(t, cfg)

	// Seed more states than the read budget allows visiting. Writes are
	// not budget-bounded: all 20 Sets must commit.
	for i := 0; i < 20; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("k%d", i), "v")
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 20, 20*time.Second)

	before := col.len()
	get := chain.NewSingleOp("client-1", 99, iel.KeyValueName, iel.FnGet, "k19")
	if err := n.Submit(0, get); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, _, failed := n.LossStats()
		if failed > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, _, failed := n.LossStats()
	if failed == 0 {
		t.Fatal("over-budget read was not abandoned")
	}
	if col.len() != before {
		t.Fatal("abandoned read still produced an event")
	}
}

func TestReadScanBudgetAllowsSmallVault(t *testing.T) {
	cfg := fastConfig(Enterprise)
	cfg.ReadScanBudget = 10
	n, col := newNetwork(t, cfg)
	set := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, set); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1, 10*time.Second)
	get := chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnGet, "k")
	if err := n.Submit(0, get); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 2, 10*time.Second)
}

func TestQueueOverflowDropsSilently(t *testing.T) {
	cfg := fastConfig(OpenSource)
	cfg.QueueDepth = 2
	cfg.SignProcessing = 50 * time.Millisecond // keep the single worker busy
	n, _ := newNetwork(t, cfg)
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

func TestSubmitAfterStop(t *testing.T) {
	n := New(fastConfig(Enterprise))
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	tx := chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}
