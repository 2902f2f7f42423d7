package systems

import (
	"fmt"
	"testing"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/wal"
)

// TestGateBacklogVisibleDuringReplay is the regression for Backlog
// undercounting while a Restart drain is in flight: the swapped-out batch
// used to be invisible, so Backlog reported 0 with work still pending. The
// drain round waits out its re-fetch with the batch swapped out.
func TestGateBacklogVisibleDuringReplay(t *testing.T) {
	clk := clocktest.New(t)
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{}, clk))
	g.Crash()
	applied := 0
	for i := 0; i < 3; i++ {
		g.Commit(1, func() { applied++ })
	}
	wait := g.Restart()
	if wait <= 0 || applied != 0 {
		t.Fatalf("Restart = %v with %d applied, want the drain round's re-fetch wait first", wait, applied)
	}
	if got := g.Backlog(); got != 3 {
		t.Fatalf("Backlog during replay = %d, want 3 (in-flight batch counted)", got)
	}
	for ; wait > 0; wait = g.Resume() {
		clk.Sleep(wait)
	}
	if applied != 3 {
		t.Fatalf("Restart replayed %d, want 3", applied)
	}
	if got := g.Backlog(); got != 0 {
		t.Fatalf("Backlog after replay = %d, want 0", got)
	}
}

// TestGateDurableReplayCostScalesWithLogLength pins the tentpole's core
// property: restart cost is real and grows with the number of records
// committed before the crash.
func TestGateDurableReplayCostScalesWithLogLength(t *testing.T) {
	run := func(commits int) (float64, RecoveryStats) {
		// The commits' and the replay's sleeps each run the clock from
		// outside, as a transient actor.
		clk := clock.NewAutoVirtual()
		var g DurableGate
		g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncAlways}, clk))
		for i := 0; i < commits; i++ {
			g.Commit(1, func() {})
		}
		g.Crash()
		restartOut(clk, &g)
		st := g.Stats()
		return st.ReplaySec, st
	}
	small, _ := run(10)
	large, st := run(100)
	if small <= 0 || large <= small {
		t.Fatalf("ReplaySec small=%v large=%v, want 0 < small < large", small, large)
	}
	if st.ReplayedRecords != 100 {
		t.Fatalf("replayed %d records, want 100", st.ReplayedRecords)
	}
	if st.LogRecords != 100 || st.LogBytes == 0 || st.Fsyncs != 100 {
		t.Fatalf("log stats = %+v", st)
	}
}

// TestGateDurableCrashLosesUnsyncedTail pins that with a lazy fsync policy
// a crash drops the pending tail and restart re-fetches it from peers.
func TestGateDurableCrashLosesUnsyncedTail(t *testing.T) {
	clk := clock.NewAutoVirtual()
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncBatch, BatchRecords: 4}, clk))
	for i := 0; i < 6; i++ { // 4 synced, 2 pending
		g.Commit(1, func() {})
	}
	g.Crash()
	restartOut(clk, &g)
	st := g.Stats()
	if st.LostRecords != 2 {
		t.Fatalf("lost %d records, want the 2 un-synced", st.LostRecords)
	}
	if st.ReplayedRecords != 4 {
		t.Fatalf("replayed %d, want the 4 durable", st.ReplayedRecords)
	}
	if st.RefetchedRecords != 2 || st.RefetchSec <= 0 {
		t.Fatalf("refetch = %d records / %v sec, want 2 records at positive cost", st.RefetchedRecords, st.RefetchSec)
	}
}

// TestGateRestartStepsThroughReplayRefetchAndDrain: a restart hands its
// caller one wait per step — the log replay, the re-fetch of the tail the
// log lost, then the drain round's re-fetch — and each step's effect lands
// only once its wait has passed. The node stays down, applying none of the
// buffered work, until the last.
func TestGateRestartStepsThroughReplayRefetchAndDrain(t *testing.T) {
	clk := clock.NewAutoVirtual()
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncBatch, BatchRecords: 4}, clk))
	for i := 0; i < 6; i++ { // 4 synced, 2 pending
		g.Commit(1, func() {})
	}
	g.Crash()
	applied := 0
	for i := 0; i < 3; i++ {
		g.Commit(1, func() { applied++ })
	}
	var steps []string
	for wait := g.Restart(); wait > 0; wait = g.Resume() {
		st := g.Stats()
		steps = append(steps, fmt.Sprintf("replayed=%d refetched=%d", st.ReplayedRecords, st.RefetchedRecords))
		if !g.Down() || applied != 0 {
			t.Fatalf("step %d: down=%v with %d applied, want down with nothing applied", len(steps), g.Down(), applied)
		}
		clk.Sleep(wait)
	}
	want := "[replayed=0 refetched=0 replayed=4 refetched=0 replayed=4 refetched=2]"
	if fmt.Sprint(steps) != want {
		t.Fatalf("waits began at %v, want %s", steps, want)
	}
	if st := g.Stats(); st.ReplayedRecords != 4 || st.RefetchedRecords != 5 {
		t.Fatalf("after recovery replayed %d, re-fetched %d: want 4, and 2 lost + 3 drained", st.ReplayedRecords, st.RefetchedRecords)
	}
	if applied != 3 || g.Down() {
		t.Fatalf("applied %d, down=%v: want 3, and up", applied, g.Down())
	}
}

// TestGateResumeOutsideRecoveryIsNoOp: Resume with no recovery wait behind
// it — on a gate that never crashed, and once a recovery is over — returns
// zero and applies nothing.
func TestGateResumeOutsideRecoveryIsNoOp(t *testing.T) {
	clk := clock.NewAutoVirtual()
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncAlways}, clk))
	if g.Resume() != 0 {
		t.Fatal("Resume on a gate that never crashed waits")
	}
	g.Crash()
	applied := 0
	g.Commit(1, func() { applied++ })
	restartOut(clk, &g)
	st := g.Stats()
	if g.Resume() != 0 || applied != 1 || g.Down() {
		t.Fatalf("Resume after recovery: applied %d, down=%v, want 1 and up", applied, g.Down())
	}
	if g.Stats() != st {
		t.Fatalf("Resume after recovery moved the stats: %+v, want %+v", g.Stats(), st)
	}
}

// TestGateDurableCrashDuringReplayStaysDown pins the crash-during-replay
// contract, for a crash during each of a restart's waits — the log replay
// and the drain round's re-fetch: recovery applies nothing more, the
// buffered work stays in arrival order, the node stays down, and the next
// Restart completes behind the work that arrived meanwhile.
func TestGateDurableCrashDuringReplayStaysDown(t *testing.T) {
	for crashAt, wait := range []string{"replay", "re-fetch"} {
		t.Run(wait, func(t *testing.T) {
			clk := clocktest.New(t)
			var g DurableGate
			g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncAlways}, clk))
			var got []int
			add := func(v int) func() { return func() { got = append(got, v) } }
			g.Commit(1, add(0)) // a record for the replay to read
			g.Crash()
			for i := 1; i <= 4; i++ {
				g.Commit(1, add(i))
			}
			w := g.Restart()
			for step := 0; step < crashAt; step++ {
				clk.Sleep(w)
				w = g.Resume()
			}
			if w <= 0 {
				t.Fatalf("recovery has no %s wait", wait)
			}
			if !g.Crash() {
				t.Fatal("crash during replay must report true (it interrupts recovery)")
			}
			for ; w > 0; w = g.Resume() {
				clk.Sleep(w)
			}
			if !g.Down() || len(got) != 1 {
				t.Fatalf("down=%v, applied %v after a crash mid-replay: want down, [0]", g.Down(), got)
			}
			g.Commit(1, add(5))
			if got := g.Backlog(); got != 5 {
				t.Fatalf("backlog after interrupt = %d, want the 4 unapplied and 1 new", got)
			}
			restartOut(clk, &g)
			if fmt.Sprint(got) != "[0 1 2 3 4 5]" {
				t.Fatalf("order = %v, want 0..5 (suffix preserved in order)", got)
			}
			if g.Down() {
				t.Fatal("node must be up after the completing Restart")
			}
		})
	}
}

// TestGateDurableStatsAddSub sanity-checks the fold arithmetic the runner
// uses for per-repetition deltas.
func TestGateDurableStatsAddSub(t *testing.T) {
	a := RecoveryStats{LogRecords: 10, LogBytes: 1000, Fsyncs: 3, ReplayedRecords: 4, ReplaySec: 0.5}
	b := RecoveryStats{LogRecords: 4, LogBytes: 400, Fsyncs: 1, ReplayedRecords: 1, ReplaySec: 0.1}
	sum := b.Add(a.Sub(b))
	if sum != a {
		t.Fatalf("b + (a - b) = %+v, want %+v", sum, a)
	}
}
