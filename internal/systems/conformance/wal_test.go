// WAL conformance: the fault matrix must hold unchanged when every node's
// commit plane runs through the durable recovery plane — including when
// the crashed node's log is torn or corrupted, and when a second crash
// lands in the middle of the first restart's replay.
package conformance_test

import (
	"errors"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
	"github.com/coconut-bench/coconut/internal/wal"
)

// walEnv is a test env whose nodes each run their commit plane through a
// write-ahead log with opts.
func walEnv(t *testing.T, opts *wal.Options) systems.Env {
	env := systemstest.Env(t)
	env.WAL = opts
	return env
}

// fastWAL keeps the hot path cheap (sub-millisecond appends) so the
// standard matrix timing holds with durability enabled.
func fastWAL() *wal.Options {
	return &wal.Options{
		Fsync: wal.FsyncAlways,
		Latency: wal.LatencyModel{
			AppendPerRecord:  10 * time.Microsecond,
			Fsync:            20 * time.Microsecond,
			ReplayPerRecord:  50 * time.Microsecond,
			RefetchPerRecord: 100 * time.Microsecond,
		},
	}
}

// TestFaultMatrixCrashWithWAL re-runs the crash column of the fault matrix
// with every node on a WAL: liveness, no phantoms, and identical committed
// prefixes must survive the durable gate's replay-and-refetch restart.
func TestFaultMatrixCrashWithWAL(t *testing.T) {
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := walEnv(t, fastWAL())
			d := c.make(t, env)
			runFaultColumn(t, env, d,
				func() {
					if err := d.CrashNode(faultNode); err != nil {
						t.Fatal(err)
					}
				},
				func() { systemstest.Restart(t, env.Clock, d, faultNode) },
			)
			stats, enabled := d.RecoveryStats()
			if !enabled {
				t.Fatal("RecoveryStats reports the WAL disabled")
			}
			if stats.LogRecords == 0 {
				t.Fatal("no WAL records appended across the fault column")
			}
			if stats.ReplayedRecords == 0 || stats.ReplaySec <= 0 {
				t.Fatalf("restart replayed nothing: %+v", stats)
			}
		})
	}
}

// TestWALCorruptionRecoversToCommittedPrefix damages the crashed node's log
// (torn final record, then a corrupted mid-log record on a second column)
// before its restart. Recovery must degrade gracefully — replay stops at
// the last valid prefix, the suffix is re-fetched — and the matrix's
// convergence criterion must still hold: the recovered node ends on the
// same committed prefix as the survivors, never a panic.
func TestWALCorruptionRecoversToCommittedPrefix(t *testing.T) {
	for _, kind := range []faults.Kind{faults.TornWrite, faults.CorruptRecord} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, c := range candidates() {
				c := c
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					env := walEnv(t, fastWAL())
					d := c.make(t, env)
					in := faults.NewInjector(d, faults.Schedule{}, env.Clock)
					runFaultColumn(t, env, d,
						func() {
							if err := in.Apply(faults.Event{Kind: faults.CrashNode, Node: faultNode}); err != nil {
								t.Fatal(err)
							}
							if err := in.Apply(faults.Event{Kind: kind, Node: faultNode}); err != nil {
								t.Fatal(err)
							}
						},
						func() {
							if err := in.Apply(faults.Event{Kind: faults.RestartNode, Node: faultNode}); err != nil {
								t.Fatal(err)
							}
						},
					)
					stats, _ := d.RecoveryStats()
					if stats.LostRecords == 0 {
						t.Fatalf("%s after %s: log reports no lost records — the injector damaged nothing", c.name, kind)
					}
					if stats.RefetchedRecords == 0 || stats.RefetchSec <= 0 {
						t.Fatalf("%s after %s: lost suffix was never re-fetched: %+v", c.name, kind, stats)
					}
				})
			}
		})
	}
}

// TestWALCrashDuringReplay lands a second crash in the middle of the first
// restart's replay. The node must stay down (no half-replayed zombie
// serving traffic), and a second restart must finish the job: liveness and
// converged prefixes as usual. Each system runs on its own auto-advancing
// virtual clock with the test body registered on it, so the crash lands at the
// same virtual instant inside the replay on every run.
func TestWALCrashDuringReplay(t *testing.T) {
	// A stretched replay latency makes the replay long. Refetch must stay
	// cheaper than the fastest block period (10ms) or the restart drain
	// could never catch up with ongoing block production.
	opts := fastWAL()
	opts.Latency.ReplayPerRecord = 5 * time.Millisecond
	for _, c := range candidates() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := walEnv(t, opts)
			clk := env.Clock
			d := c.make(t, env)
			const batch = 4
			col := systemstest.Collect(env, d, "client-1")
			systemstest.Start(t, d)

			var seq uint64
			var keys []string
			for i := 0; i < batch; i++ {
				keys = append(keys, submitSet(t, d, &seq, "pre", i))
			}
			col.Wait(t, batch, 15*time.Second)

			// Seed the fault node's log so its replay is long on every
			// system: block producers accumulate records on their own, but
			// request-driven systems (Corda) would replay only a handful.
			// 120 records x 5ms make the replay last at least 600ms.
			for i := 0; i < 120; i++ {
				d.NodeWAL(faultNode).Append(1)
			}

			if err := d.CrashNode(faultNode); err != nil {
				t.Fatal(err)
			}
			// Load during the outage builds the crashed node's backlog, so
			// the restart has a long refetch phase to crash into.
			for i := 0; i < batch; i++ {
				keys = append(keys, submitSet(t, d, &seq, "mid", i))
			}
			clk.Sleep(300 * time.Millisecond)

			// The crash lands 150ms into the restart's replay, while the test
			// sleeps out its recovery steps.
			var crashedAt time.Time
			crash := clock.NewEvent(clk, "crasher", func() {
				crashedAt = clk.Now()
				if err := d.CrashNode(faultNode); err != nil {
					t.Error(err)
				}
			})
			crash.After(150 * time.Millisecond)
			systemstest.Restart(t, clk, d, faultNode)
			if restartedAt := clk.Now(); crashedAt.IsZero() || !restartedAt.After(crashedAt) {
				t.Fatalf("the restart returned at %v, before the crash at %v: the crash missed the replay",
					restartedAt, crashedAt)
			}

			// The interrupted restart must leave the node down.
			seq++
			tx := chain.NewSingleOp("client-1", seq, iel.KeyValueName, iel.FnSet, "wal-recrash", "x")
			if err := d.Submit(faultNode, tx); !errors.Is(err, systems.ErrNodeDown) {
				t.Fatalf("Submit after a mid-replay crash: err = %v, want ErrNodeDown", err)
			}

			// The second restart completes recovery.
			systemstest.Restart(t, clk, d, faultNode)
			for i := 0; i < batch; i++ {
				keys = append(keys, submitSet(t, d, &seq, "post", i))
			}
			seq++
			via := chain.NewSingleOp("client-1", seq, iel.KeyValueName, iel.FnSet, "wal-post-via-3", "post")
			if err := d.Submit(faultNode, via); err != nil {
				t.Fatalf("submit through the recovered node: %v", err)
			}
			keys = append(keys, "wal-post-via-3")

			// Liveness after the double crash.
			col.Wait(t, 2*batch+1, 15*time.Second)
			clk.Sleep(systemstest.Settle)
			assertStateConverged(t, d, keys)
		})
	}
}
