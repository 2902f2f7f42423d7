package conformance_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// The fault conformance matrix: every one of the seven systems ×
// {crash-one-node, partition-then-heal} must
//
//   - recover liveness: transactions submitted after the recovery finalize
//     end to end;
//   - commit no phantom transactions on the crashed/minority side: while a
//     node is down, nothing submitted during the outage may be confirmed
//     end to end (the paper's §4.5 criterion requires the down node), and
//     the down node's state must not diverge;
//   - converge to identical committed prefixes: after recovery, every
//     node's world state agrees on exactly which of the test's keys exist
//     and on their values.
//
// Systems may legitimately differ in what happens to transactions offered
// DURING the outage: the hub-based systems deliver them after catch-up,
// while Corda loses them outright (every flow needs every node's
// signature). The matrix therefore asserts liveness on the post-recovery
// batch only.

const faultNode = 3 // the node taken down by both matrix columns

// submitSet submits one KeyValue.Set, numbered by nums, through a healthy
// entry node and returns the written key.
func submitSet(t *testing.T, d systems.Driver, nums *systemstest.Numbers, seq *uint64, phase string, i int) string {
	t.Helper()
	*seq++
	key := fmt.Sprintf("fault-%s-%d", phase, i)
	tx := nums.Next(chain.NewSingleOp("client-1", *seq, iel.KeyValueName, iel.FnSet, key, phase))
	if err := d.Submit(i%faultNode, tx); err != nil { // entries 0..2 stay up
		t.Fatalf("submit %s: %v", key, err)
	}
	return key
}

// assertNoEvents asserts that no confirmation arrives within
// systemstest.Settle (used while a node is down: the end-to-end criterion
// cannot be met, so any event would be a phantom).
func assertNoEvents(t *testing.T, env systems.Env, col *systemstest.Collector, base int) {
	t.Helper()
	env.Clock.Sleep(systemstest.Settle)
	if n := col.Len(); n != base {
		t.Fatalf("received %d events while a node was down, want 0 (phantom confirmations)", n-base)
	}
}

// assertStateConverged checks that every node agrees on which of the
// KeyValue keys exist and on their values. Drivers without a queryable world state
// (Corda) are checked via their vault sizes instead.
func assertStateConverged(t *testing.T, d systems.Driver, keys []string) {
	t.Helper()
	type stateReader interface {
		WorldState(i int) *statestore.KVStore
	}
	type vaultSizer interface {
		VaultSize(i int) int
	}
	switch sr := d.(type) {
	case stateReader:
		for _, key := range keys {
			ref, refOK := sr.WorldState(0).Get(statestore.Key{Name: key})
			for node := 1; node < d.NodeCount(); node++ {
				got, ok := sr.WorldState(node).Get(statestore.Key{Name: key})
				if ok != refOK {
					t.Fatalf("key %q: node 0 present=%v, node %d present=%v (diverged prefixes)",
						key, refOK, node, ok)
				}
				if ok && got.Value != ref.Value {
					t.Fatalf("key %q: node 0 = %q, node %d = %q", key, ref.Value, node, got.Value)
				}
			}
		}
	case vaultSizer:
		ref := sr.VaultSize(0)
		for node := 1; node < d.NodeCount(); node++ {
			if got := sr.VaultSize(node); got != ref {
				t.Fatalf("vault size: node 0 = %d, node %d = %d (diverged prefixes)", ref, node, got)
			}
		}
	default:
		t.Fatalf("%s exposes neither world state nor vault sizes", d.Name())
	}
}

// runFaultColumn drives one matrix column on d, built on env: settle a
// healthy batch, take faultNode down via down(), offer a batch during the
// outage, recover via up(), and require liveness, no phantoms, and
// converged state.
func runFaultColumn(t *testing.T, env systems.Env, d systems.Driver, down, up func()) {
	var nums systemstest.Numbers
	const batch = 4
	col := systemstest.Collect(env, d, "client-1")
	systemstest.Start(t, d)

	var seq uint64
	var keys []string

	// Healthy baseline: all confirmations arrive.
	for i := 0; i < batch; i++ {
		keys = append(keys, submitSet(t, d, &nums, &seq, "pre", i))
	}
	col.Wait(t, batch, 15*time.Second)

	down()

	// The down node's admission path must reject.
	tx := nums.Next(chain.NewSingleOp("client-1", 1<<20, iel.KeyValueName, iel.FnSet, "fault-rejected", "x"))
	if err := d.Submit(faultNode, tx); err == nil {
		t.Fatal("Submit through the down node succeeded")
	} else if !errors.Is(err, systems.ErrNodeDown) {
		t.Fatalf("Submit through the down node: err = %v, want ErrNodeDown", err)
	}

	// Offered load during the outage must not confirm end to end.
	for i := 0; i < batch; i++ {
		keys = append(keys, submitSet(t, d, &nums, &seq, "mid", i))
	}
	assertNoEvents(t, env, col, batch)

	up()

	// Liveness recovery: a fresh batch (including one through the
	// recovered node itself) finalizes end to end.
	for i := 0; i < batch; i++ {
		keys = append(keys, submitSet(t, d, &nums, &seq, "post", i))
	}
	seq++
	viaRecovered := nums.Next(chain.NewSingleOp("client-1", seq, iel.KeyValueName, iel.FnSet, "fault-post-via-3", "post"))
	if err := d.Submit(faultNode, viaRecovered); err != nil {
		t.Fatalf("submit through the recovered node: %v", err)
	}
	keys = append(keys, "fault-post-via-3")

	// The post-recovery batch is batch+1 events; hub-based systems also
	// deliver the outage batch after catch-up, so wait for >= the floor
	// every conforming system must reach.
	col.Wait(t, 2*batch+1, 15*time.Second)

	// Let stragglers (catch-up deliveries) settle, then require identical
	// committed prefixes across every node.
	env.Clock.Sleep(systemstest.Settle)
	assertStateConverged(t, d, keys)
}

// TestFaultMatrixCrashOneNode drives the crash column through the
// Driver.CrashNode/RestartNode hooks directly.
func TestFaultMatrixCrashOneNode(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := systemstest.Env(t)
			d := c.make(t, env)
			runFaultColumn(t, env, d,
				func() {
					if err := d.CrashNode(faultNode); err != nil {
						t.Fatal(err)
					}
				},
				func() { systemstest.Restart(t, env.Clock, d, faultNode) },
			)
		})
	}
}

// TestFaultMatrixPartitionThenHeal drives the partition column through
// the fault injector, exercising the same path the runner's chaos
// schedules use.
func TestFaultMatrixPartitionThenHeal(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := systemstest.Env(t)
			d := c.make(t, env)
			in := faults.NewInjector(d, faults.Schedule{}, env.Clock)
			runFaultColumn(t, env, d,
				func() {
					if err := in.Apply(faults.Event{Kind: faults.Partition, Group: []int{faultNode}}); err != nil {
						t.Fatal(err)
					}
				},
				func() {
					if err := in.Apply(faults.Event{Kind: faults.Heal}); err != nil {
						t.Fatal(err)
					}
				},
			)
		})
	}
}

// TestFaultHooksContract pins the crash/restart hook contract itself:
// out-of-range indices error, double-crash and restart-without-crash are
// harmless no-ops.
func TestFaultHooksContract(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			env := systemstest.Env(t)
			d := c.make(t, env)
			systemstest.Start(t, d)
			if err := d.CrashNode(99); err == nil {
				t.Fatal("CrashNode(99) did not error")
			}
			if err := d.CrashNode(-1); err == nil {
				t.Fatal("CrashNode(-1) did not error")
			}
			if err := d.CrashNode(0); err != nil {
				t.Fatal(err)
			}
			if err := d.CrashNode(0); err != nil {
				t.Fatalf("double crash errored: %v", err)
			}
			systemstest.Restart(t, env.Clock, d, 0)
			if wait, err := d.RestartNode(0); err != nil || wait != 0 {
				t.Fatalf("restart of a running node = (%v, %v), want a no-op", wait, err)
			}
		})
	}
}
