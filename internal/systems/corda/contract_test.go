package corda_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/corda"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
	"github.com/coconut-bench/coconut/internal/wal"
)

// build builds the edition named system on a test env at its Figure 3
// cell for bench.
func build(t *testing.T, system string, bench coconut.BenchmarkName) (*corda.Network, systems.Env) {
	t.Helper()
	cell, ok := experiments.BestCell(system, bench)
	if !ok {
		t.Fatalf("no Figure 3 cell for %s %s", system, bench)
	}
	env := systemstest.Env(t)
	if system == systems.NameCordaOS {
		return corda.NewOS(env, cell.Params), env
	}
	return corda.NewEnterprise(env, cell.Params), env
}

// startBest starts the edition named system at its Figure 3 cell for
// bench, with a collector for client-1.
func startBest(t *testing.T, system string, bench coconut.BenchmarkName) (*corda.Network, systems.Env, *systemstest.Collector) {
	t.Helper()
	n, env := build(t, system, bench)
	col := systemstest.Collect(env, n, "client-1")
	systemstest.Start(t, n)
	return n, env, col
}

func TestEditionNames(t *testing.T) {
	for _, name := range []string{systems.NameCordaOS, systems.NameCordaEnt} {
		if n, _ := build(t, name, coconut.BenchDoNothing); n.Name() != name {
			t.Fatalf("Name = %q, want %q", n.Name(), name)
		}
	}
}

func TestWriteFlowCommitsToAllVaults(t *testing.T) {
	n, _, col := startBest(t, systems.NameCordaEnt, coconut.BenchKeyValueSet)
	tx := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, tx); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)
	for i := 0; i < 4; i++ {
		if n.VaultSize(i) != 1 {
			t.Fatalf("node %d vault size = %d, want 1", i, n.VaultSize(i))
		}
	}
}

func TestReadFlowFindsWrittenState(t *testing.T) {
	n, _, col := startBest(t, systems.NameCordaEnt, coconut.BenchKeyValueGet)
	set := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, set); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)

	get := chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnGet, "k")
	if err := n.Submit(0, get); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 2, 10*time.Second)
}

func TestReadOfMissingKeyIsLost(t *testing.T) {
	n, env, col := startBest(t, systems.NameCordaEnt, coconut.BenchKeyValueGet)
	get := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnGet, "never-set")
	if err := n.Submit(0, get); err != nil {
		t.Fatal(err)
	}
	env.Clock.Sleep(systemstest.Settle)
	if col.Len() != 0 {
		t.Fatal("failed read produced an event")
	}
	_, _, failed := n.LossStats()
	if failed == 0 {
		t.Fatal("failure not recorded")
	}
}

func TestDoubleSpendRejectedByNotary(t *testing.T) {
	n, env, col := startBest(t, systems.NameCordaEnt, coconut.BenchSendPayment)
	create := chain.NewSingleOp("client-1", 0, iel.BankingAppName, iel.FnCreateAccount, "acc-0", "100", "0")
	if err := n.Submit(0, create); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)

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
	col.Wait(t, 2, 10*time.Second)
	env.Clock.Sleep(systemstest.Settle)
	if got := col.Len(); got != 2 {
		t.Fatalf("events = %d, want 2 (create + exactly one payment)", got)
	}
	_, _, failed := n.LossStats()
	if failed == 0 {
		t.Fatal("losing payment not recorded as failed")
	}
}

// TestReadScanBudgetAbandonsReadsOnLargeVault: Corda OS abandons a read
// whose vault holds more states than its 8-state scan budget (§5.1).
func TestReadScanBudgetAbandonsReadsOnLargeVault(t *testing.T) {
	n, env, col := startBest(t, systems.NameCordaOS, coconut.BenchKeyValueGet)

	// Seed more states than the read budget allows visiting. Writes are
	// not budget-bounded: all 20 Sets must commit.
	for i := 0; i < 20; i++ {
		tx := chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
			fmt.Sprintf("k%d", i), "v")
		if err := n.Submit(0, tx); err != nil {
			t.Fatal(err)
		}
	}
	col.Wait(t, 20, 20*time.Second)

	before := col.Len()
	get := chain.NewSingleOp("client-1", 99, iel.KeyValueName, iel.FnGet, "k19")
	if err := n.Submit(0, get); err != nil {
		t.Fatal(err)
	}
	deadline := env.Clock.Now().Add(5 * time.Second)
	for env.Clock.Now().Before(deadline) {
		_, _, failed := n.LossStats()
		if failed > 0 {
			break
		}
		env.Clock.Sleep(5 * time.Millisecond)
	}
	_, _, failed := n.LossStats()
	if failed == 0 {
		t.Fatal("over-budget read was not abandoned")
	}
	if col.Len() != before {
		t.Fatal("abandoned read still produced an event")
	}
}

func TestReadScanBudgetAllowsSmallVault(t *testing.T) {
	n, _, col := startBest(t, systems.NameCordaOS, coconut.BenchKeyValueGet)
	set := chain.NewSingleOp("client-1", 0, iel.KeyValueName, iel.FnSet, "k", "v")
	if err := n.Submit(0, set); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 1, 10*time.Second)
	get := chain.NewSingleOp("client-1", 1, iel.KeyValueName, iel.FnGet, "k")
	if err := n.Submit(0, get); err != nil {
		t.Fatal(err)
	}
	col.Wait(t, 2, 10*time.Second)
}

func TestSubmitAfterStop(t *testing.T) {
	n, _ := build(t, systems.NameCordaEnt, coconut.BenchDoNothing)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	tx := chain.NewSingleOp("c", 0, iel.DoNothingName, iel.FnDoNothing)
	if err := n.Submit(0, tx); err == nil {
		t.Fatal("Submit after Stop must fail")
	}
}

// recoveryWaits counts the recovery waits a driver hands out for one node:
// the sleeps the runner makes restarting that node.
type recoveryWaits struct {
	*corda.Network
	node  int
	waits int64
}

func (r *recoveryWaits) count(node int, wait time.Duration) time.Duration {
	if node == r.node && wait > 0 {
		r.waits++
	}
	return wait
}

func (r *recoveryWaits) RestartNode(node int) (time.Duration, error) {
	wait, err := r.Network.RestartNode(node)
	return r.count(node, wait), err
}

func (r *recoveryWaits) ResumeNode(node int) time.Duration {
	return r.count(node, r.Network.ResumeNode(node))
}

// TestCordaConfirmsAcrossCrashAndRecovery: a Corda repetition run through
// the runner, faults and write-ahead logs included, confirms transactions
// in every phase while node 2 crashes and recovers on the injector's
// timeline and node 3 stays down until Stop restarts it, which waits out
// that recovery's steps.
func TestCordaConfirmsAcrossCrashAndRecovery(t *testing.T) {
	for _, sys := range []struct {
		name string
		ctor func(systems.Env, systems.Params) *corda.Network
	}{{systems.NameCordaOS, corda.NewOS}, {systems.NameCordaEnt, corda.NewEnterprise}} {
		t.Run(sys.name, func(t *testing.T) {
			const send = 3 * time.Second
			unit := []coconut.BenchmarkName{coconut.BenchKeyValueSet, coconut.BenchDoNothing}
			sched := faults.Schedule{Events: []faults.Event{
				{At: send / 5, Kind: faults.CrashNode, Node: 2},
				{At: send / 3, Kind: faults.CrashNode, Node: 3},
				{At: send / 2, Kind: faults.RestartNode, Node: 2},
			}}
			var drv *recoveryWaits
			res, err := coconut.Run(coconut.RunConfig{
				SystemName: sys.name,
				NewDriver: func(c *clock.AutoVirtual) systems.Driver {
					env := systems.Env{Nodes: 4, Scale: 0.01, Clock: c, WAL: &wal.Options{Fsync: wal.FsyncBatch}}
					drv = &recoveryWaits{Network: sys.ctor(env, systems.Params{}), node: 3}
					return drv
				},
				Unit:         unit,
				RateLimit:    1,
				SendDuration: send,
				ListenGrace:  time.Second,
				Repetitions:  1,
				Faults:       &sched,
				NewClock:     clock.NewAutoVirtual,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.Received.Mean == 0 {
					t.Fatalf("%s confirmed nothing", r.Benchmark)
				}
			}
			if drv.waits == 0 {
				t.Fatal("Stop's restarts of node 3 waited for nothing")
			}
		})
	}
}
