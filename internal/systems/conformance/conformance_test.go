// Package conformance_test exercises the systems.Driver contract uniformly
// against all seven simulated systems: every system must start and stop
// cleanly, confirm committed writes end to end on every node, route events
// to the right client, and reject submissions after Stop. System-specific
// behaviour (losses, validation failures) lives in each system's own
// package; this suite pins the shared contract.
package conformance_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// candidate is one system as a run builds it: through the constructor
// table, at its Figure 3 KeyValue-Set cell.
type candidate struct {
	name string
	p    experiments.Params
}

// make builds the candidate on env.
func (c candidate) make(t *testing.T, env systems.Env) systems.Driver {
	t.Helper()
	d, err := experiments.NewDriver(c.name, env, c.p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func candidates() []candidate {
	var cs []candidate
	for _, name := range experiments.AllSystems {
		cell, _ := experiments.BestCell(name, coconut.BenchKeyValueSet)
		cs = append(cs, candidate{name, cell.Params})
	}
	return cs
}

func TestContractNameAndNodeCount(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make(t, systemstest.Env(t))
			if d.Name() != c.name {
				t.Fatalf("Name() = %q, want %q", d.Name(), c.name)
			}
			if d.NodeCount() != 4 {
				t.Fatalf("NodeCount() = %d, want the paper's 4", d.NodeCount())
			}
		})
	}
}

// TestContractSurface pins what the one contract leaves to run time. Corda
// has no message fabric and no key-value world state: its FaultTransport is
// nil (link faults are reported as not applied for it) and it exposes no
// WorldState (the suites fall back to VaultSize).
func TestContractSurface(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make(t, systemstest.Env(t))
			corda := c.name == systems.NameCordaOS || c.name == systems.NameCordaEnt
			if noFabric := d.FaultTransport() == nil; noFabric != corda {
				t.Errorf("FaultTransport() == nil is %v, want %v", noFabric, corda)
			}
			if _, ok := d.(interface {
				WorldState(i int) *statestore.KVStore
			}); ok == corda {
				t.Errorf("WorldState = %v, want %v", ok, !corda)
			}
		})
	}
}

func TestContractCommitsEndToEnd(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var nums systemstest.Numbers
			env := systemstest.Env(t)
			d := c.make(t, env)
			col := systemstest.Collect(env, d, "client-1")
			systemstest.Start(t, d)

			const txs = 5
			for i := 0; i < txs; i++ {
				tx := nums.Next(chain.NewSingleOp("client-1", uint64(i), iel.KeyValueName, iel.FnSet,
					fmt.Sprintf("conf-%d", i), "v"))
				if err := d.Submit(i, tx); err != nil {
					t.Fatal(err)
				}
			}
			events := col.Wait(t, txs, 15*time.Second)
			seen := make(map[string]bool)
			for _, e := range events {
				if !e.Committed || !e.ValidOK {
					t.Fatalf("event = %+v, want committed+valid", e)
				}
				if e.Client != "client-1" {
					t.Fatalf("event routed to %q", e.Client)
				}
				seen[e.TxID.String()] = true
			}
			if len(seen) != txs {
				t.Fatalf("distinct events = %d, want %d", len(seen), txs)
			}
		})
	}
}

func TestContractEventsRoutePerClient(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var nums systemstest.Numbers
			env := systemstest.Env(t)
			d := c.make(t, env)
			colA := systemstest.Collect(env, d, "client-a")
			colB := systemstest.Collect(env, d, "client-b")
			systemstest.Start(t, d)

			txA := nums.Next(chain.NewSingleOp("client-a", 1, iel.DoNothingName, iel.FnDoNothing))
			txB := nums.Next(chain.NewSingleOp("client-b", 1, iel.DoNothingName, iel.FnDoNothing))
			if err := d.Submit(0, txA); err != nil {
				t.Fatal(err)
			}
			if err := d.Submit(1, txB); err != nil {
				t.Fatal(err)
			}
			evA := colA.Wait(t, 1, 15*time.Second)
			evB := colB.Wait(t, 1, 15*time.Second)
			if evA[0].TxID != txA.ID {
				t.Fatal("client-a received the wrong transaction")
			}
			if evB[0].TxID != txB.ID {
				t.Fatal("client-b received the wrong transaction")
			}
			if colA.Len() > 1 || colB.Len() > 1 {
				t.Fatal("cross-client event leakage")
			}
		})
	}
}

func TestContractNoDuplicateEvents(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var nums systemstest.Numbers
			env := systemstest.Env(t)
			d := c.make(t, env)
			col := systemstest.Collect(env, d, "client-1")
			systemstest.Start(t, d)

			tx := nums.Next(chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing))
			if err := d.Submit(0, tx); err != nil {
				t.Fatal(err)
			}
			col.Wait(t, 1, 15*time.Second)
			// Allow stragglers to surface, then verify exactly one event.
			env.Clock.Sleep(systemstest.Settle)
			if n := col.Len(); n != 1 {
				t.Fatalf("events = %d, want exactly 1 (at-most-once per tx)", n)
			}
		})
	}
}

func TestContractSubmitAfterStopFails(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var nums systemstest.Numbers
			d := c.make(t, systemstest.Env(t))
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			d.Stop()
			tx := nums.Next(chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing))
			if err := d.Submit(0, tx); err == nil {
				t.Fatal("Submit after Stop must fail")
			}
		})
	}
}

func TestContractStopIsIdempotent(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make(t, systemstest.Env(t))
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			d.Stop()
			d.Stop() // must not panic or hang
		})
	}
}

func TestContractStartIsIdempotent(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := c.make(t, systemstest.Env(t))
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			if err := d.Start(); err != nil {
				t.Fatalf("second Start errored: %v", err)
			}
			d.Stop()
		})
	}
}

func TestContractEntryNodeWrapsAround(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var nums systemstest.Numbers
			env := systemstest.Env(t)
			d := c.make(t, env)
			col := systemstest.Collect(env, d, "client-1")
			systemstest.Start(t, d)
			// Entry node beyond NodeCount must not panic: it wraps.
			tx := nums.Next(chain.NewSingleOp("client-1", 1, iel.DoNothingName, iel.FnDoNothing))
			if err := d.Submit(99, tx); err != nil {
				t.Fatal(err)
			}
			col.Wait(t, 1, 15*time.Second)
		})
	}
}

// TestContractFundsConservation runs a banking workload (creates + chained
// payments) against every block-based system and verifies that the world
// state conserves total funds regardless of how many payments failed,
// conflicted, or were discarded. Corda is excluded: its UTXO vault has no
// queryable balance aggregate in this harness.
func TestContractFundsConservation(t *testing.T) {
	type stateReader interface {
		WorldState(i int) *statestore.KVStore
	}
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var nums systemstest.Numbers
			env := systemstest.Env(t)
			d := c.make(t, env)
			sr, ok := d.(stateReader)
			if !ok {
				t.Skipf("%s exposes no world state", c.name)
			}
			col := systemstest.Collect(env, d, "client-1")
			systemstest.Start(t, d)

			const accounts = 6
			const initial = 1000
			seq := uint64(0)
			for i := 0; i < accounts; i++ {
				seq++
				tx := nums.Next(chain.NewSingleOp("client-1", seq, iel.BankingAppName, iel.FnCreateAccount,
					fmt.Sprintf("fc-%d", i), "1000", "0"))
				if err := d.Submit(i, tx); err != nil {
					t.Fatal(err)
				}
			}
			col.Wait(t, accounts, 15*time.Second)

			// Chained overlapping payments: some will conflict/fail by design.
			payments := 0
			for i := 0; i < accounts-1; i++ {
				seq++
				tx := nums.Next(chain.NewSingleOp("client-1", seq, iel.BankingAppName, iel.FnSendPayment,
					fmt.Sprintf("fc-%d", i), fmt.Sprintf("fc-%d", i+1), "7"))
				if err := d.Submit(i, tx); err == nil {
					payments++
				}
			}
			// Give payments time to settle; some systems drop them entirely.
			env.Clock.Sleep(systemstest.Settle)

			for node := 0; node < d.NodeCount(); node++ {
				total := int64(0)
				found := 0
				for i := 0; i < accounts; i++ {
					id := fmt.Sprintf("fc-%d", i)
					cKey := statestore.Key{Name: id, Part: statestore.Checking}
					sKey := statestore.Key{Name: id, Part: statestore.Savings}
					cv, okC := sr.WorldState(node).Get(cKey)
					sv, okS := sr.WorldState(node).Get(sKey)
					if !okC || !okS {
						continue
					}
					found++
					cAmt, err := strconv.ParseInt(cv.Value, 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					sAmt, err := strconv.ParseInt(sv.Value, 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					total += cAmt + sAmt
				}
				if found == 0 {
					t.Fatalf("node %d has no accounts in state", node)
				}
				if want := int64(found) * initial; total != want {
					t.Fatalf("node %d: funds = %d, want %d (conservation violated across %d accounts)",
						node, total, want, found)
				}
			}
		})
	}
}
