package systems

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/wal"
)

func TestGateBuffersWhileDownAndReplaysInOrder(t *testing.T) {
	var g DurableGate
	var got []int
	add := func(v int) func() { return func() { got = append(got, v) } }

	g.Commit(1, add(1))
	if !g.Crash() {
		t.Fatal("first Crash must report the node was up")
	}
	if g.Crash() {
		t.Fatal("second Crash must be a no-op")
	}
	g.Commit(1, add(2))
	g.Commit(1, add(3))
	if got := g.Backlog(); got != 2 {
		t.Fatalf("backlog = %d, want 2", got)
	}
	if wait := g.Restart(); wait != 0 || len(got) != 3 {
		t.Fatalf("Restart without a log = %v, applied %v: want no wait, 1..3 applied", wait, got)
	}
	if g.Restart() != 0 || len(got) != 3 {
		t.Fatal("Restart on an up node must be a no-op")
	}
	g.Commit(1, add(4))
	g.Commit(5, add(5)) // without a log the entry count changes nothing
	if len(got) != 5 {
		t.Fatalf("applied %v, want 1..5", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v, want 1..5", got)
		}
	}
	if g.Down() {
		t.Fatal("gate must be open after Restart")
	}
	if st := g.Stats(); st != (RecoveryStats{}) {
		t.Fatalf("stats without a log = %+v, want zero", st)
	}
}

// TestGateReplayReentrantDo is the regression for the replay deadlock: a
// buffered callback that re-enters Commit on the same gate (drivers nest
// commit work) must not self-deadlock. Under the old implementation Restart ran
// the backlog holding g.mu, so the nested commit blocked forever.
func TestGateReplayReentrantDo(t *testing.T) {
	var g DurableGate
	var got []int
	g.Crash()
	g.Commit(1, func() {
		got = append(got, 1)
		g.Commit(1, func() { got = append(got, 2) })
	})
	g.Restart()
	// The nested commit arrives while the gate is still draining, so it is
	// buffered behind the replayed prefix and drained by the next round.
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", got)
	}
	if g.Down() {
		t.Fatal("gate must be open after replay drains")
	}
}

// restartOut restarts g and sleeps out its recovery on clk.
func restartOut(clk *clock.AutoVirtual, g *DurableGate) {
	for wait := g.Restart(); wait > 0; wait = g.Resume() {
		clk.Sleep(wait)
	}
}

// TestGateConcurrentRestartIsNoOp pins that a Restart made while another
// is recovering neither double-replays nor reopens the gate early: the
// first Restart's drain round waits out its re-fetch, and a second Restart
// then, and one from inside the replayed work, change nothing.
func TestGateConcurrentRestartIsNoOp(t *testing.T) {
	clk := clocktest.New(t)
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{}, clk))
	count := 0
	g.Crash()
	g.Commit(1, func() {
		count++
		if g.Restart() != 0 {
			t.Error("a Restart from the replayed work waits")
		}
	})
	wait := g.Restart()
	if wait <= 0 || count != 0 {
		t.Fatalf("Restart = %v with %d applied, want a re-fetch wait before the drain", wait, count)
	}
	if g.Restart() != 0 || count != 0 || !g.Down() {
		t.Fatal("a second Restart during recovery replayed or reopened")
	}
	for ; wait > 0; wait = g.Resume() {
		clk.Sleep(wait)
	}
	if count != 1 || g.Down() {
		t.Fatalf("callback ran %d times, down=%v: want once, and up", count, g.Down())
	}
}

// gateWork is commit work as a driver passes it to CommitTo: a value
// holding pointers, applied by a function built once.
type gateWork struct {
	got *[]int
	v   int
}

func applyGateWork(w gateWork) { *w.got = append(*w.got, w.v) }

// TestGateCommitToAllocs pins that committing allocates nothing once warm:
// on an open gate without a log, and through a log whose modeled latency
// the work waits out — the clock is driven past each deadline, so every
// waiting commit applies before the next. The closure binding the work to
// its argument is made only when the gate has to keep the work past a
// crash.
func TestGateCommitToAllocs(t *testing.T) {
	got := make([]int, 0, 1)
	t.Run("no log", func(t *testing.T) {
		var g DurableGate
		if n := testing.AllocsPerRun(1000, func() {
			got = got[:0]
			CommitTo(&g, 3, gateWork{&got, 1}, applyGateWork)
		}); n != 0 {
			t.Fatalf("CommitTo allocates %v times per commit, want 0", n)
		}
	})
	t.Run("batch-fsync log", func(t *testing.T) {
		clk := clocktest.New(t)
		var g DurableGate
		// Snapshots keep the log on its first segment, so the count is
		// the gate's and not the log's growth.
		g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncBatch, SnapshotEvery: 64}, clk))
		waited := 0
		if n := testing.AllocsPerRun(1000, func() {
			got = got[:0]
			CommitTo(&g, 3, gateWork{&got, 1}, applyGateWork)
			if len(got) == 0 {
				waited++
			}
			clk.Sleep(time.Second) // past the deadline: the work applies
			if len(got) != 1 {
				t.Fatalf("applied %v after the deadline, want [1]", got)
			}
		}); n != 0 {
			t.Fatalf("a waiting commit allocates %v times, want 0", n)
		}
		if waited != 1001 {
			t.Fatalf("%d of 1001 commits waited for their deadline", waited)
		}
		if st := g.Stats(); st.Fsyncs == 0 || st.Snapshots == 0 {
			t.Fatalf("log stats = %+v, want fsyncs and snapshots", st)
		}
	})
}

// TestGateMixedWorkReplaysInArrivalOrder interleaves closures (Commit) and
// argument-bound work (CommitTo) across a crash that lands during one
// commit's durability wait and the writes buffered behind it: Restart
// replays all of it in arrival order, and the work of an open gate applies
// at its deadline.
func TestGateMixedWorkReplaysInArrivalOrder(t *testing.T) {
	const wait = time.Millisecond
	clk := clocktest.New(t)
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{Latency: wal.LatencyModel{AppendPerRecord: wait}}, clk))
	var got []int
	commit := func(v int) {
		if v%2 == 1 {
			g.Commit(1, func() { got = append(got, v) })
			return
		}
		CommitTo(&g, 1, gateWork{&got, v}, applyGateWork)
	}
	// The crasher is an event: it crashes the gate, and later restarts it
	// and runs the recovery step by step.
	var backlog, replayed int
	var crasher *clock.Event
	step := 0
	crasher = clock.NewEvent(clk, "crasher", func() {
		var next time.Duration
		switch step++; step {
		case 1: // 1 and 2 have applied; 3 is in its durability wait.
			if !g.Crash() {
				t.Error("Crash reported the node down already")
			}
			next = 10 * wait
		case 2:
			backlog, replayed = g.Backlog(), len(got)
			next = g.Restart()
		default:
			next = g.Resume()
		}
		if next > 0 {
			crasher.After(next)
		} else if replayed = len(got) - replayed; replayed != 4 {
			t.Errorf("Restart replayed %d tasks, want 4", replayed)
		}
	})
	crasher.After(2*wait + wait/4)
	// 1 applies at +1 wait and 2 at +2; 3, committed at +1.5, is due at
	// +2.5 and buffered by the crash. Its Commit returns then, and 4, 5
	// and 6 arrive at a crashed gate.
	commit(1)
	commit(2)
	clk.Sleep(wait / 2)
	for v := 3; v <= 6; v++ {
		commit(v)
	}
	clk.Sleep(20 * wait)
	commit(7)
	commit(8)
	if backlog != 4 {
		t.Fatalf("backlog before Restart = %d, want 4", backlog)
	}
	clk.Sleep(10 * wait) // 8 waits out its deadline
	if len(got) != 8 {
		t.Fatalf("applied %v, want 1..8", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("applied %v, want 1..8 in arrival order", got)
		}
	}
}

// TestGateCrashBeforeDeadlineBuffersInArrivalOrder: a crash between the
// append and the deadline moves the waiting work to the backlog, in the
// order it arrived and ahead of the work that reaches the crashed gate; the
// deadline then applies nothing, and Restart applies all of it in order.
func TestGateCrashBeforeDeadlineBuffersInArrivalOrder(t *testing.T) {
	clk := clocktest.New(t)
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncAlways,
		Latency: wal.LatencyModel{AppendPerRecord: time.Millisecond, Fsync: 5 * time.Millisecond}}, clk))
	var got []int
	for v := 1; v <= 3; v++ {
		CommitTo(&g, v, gateWork{&got, v}, applyGateWork)
	}
	if len(got) != 0 {
		t.Fatalf("applied %v before any deadline", got)
	}
	g.Crash()
	CommitTo(&g, 1, gateWork{&got, 4}, applyGateWork)
	if n := g.Backlog(); n != 4 {
		t.Fatalf("backlog = %d after the crash, want the 3 waiting + 1 new", n)
	}
	clk.Sleep(time.Second) // every deadline passes on a crashed gate
	if len(got) != 0 {
		t.Fatalf("applied %v while down", got)
	}
	restartOut(clk, &g)
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("applied %v, want [1 2 3 4]", got)
	}
}

// TestGateCommitReturnsAfterApply: Commit blocks its actor until its work
// has applied — after the work ahead of it, and no earlier than its own
// append plus latency — which is what a caller that times a commit relies
// on.
func TestGateCommitReturnsAfterApply(t *testing.T) {
	const wait = 3 * time.Millisecond
	clk := clocktest.New(t)
	var g DurableGate
	g.Enable(clk, wal.New("n0", wal.Options{Latency: wal.LatencyModel{AppendPerRecord: wait}}, clk))
	var got []int
	start := clk.Now()
	CommitTo(&g, 1, gateWork{&got, 1}, applyGateWork)
	g.Commit(1, func() { got = append(got, 2) })
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("Commit returned with %v applied, want [1 2]", got)
	}
	if d := clk.Since(start); d != wait {
		t.Fatalf("Commit returned after %v, want %v", d, wait)
	}
	g.Commit(1, func() { got = append(got, 3) })
	if len(got) != 3 || clk.Since(start) != 2*wait {
		t.Fatalf("second Commit: applied %v at +%v, want 3 items at +%v", got, clk.Since(start), 2*wait)
	}
}

// TestGateStopDisarms: a driver's Stop (the chassis' MarkStopped) leaves no
// gate deadline armed, and the work still waiting is dropped with the
// process.
func TestGateStopDisarms(t *testing.T) {
	p := newFakePipeline(2, &wal.Options{Latency: wal.LatencyModel{AppendPerRecord: time.Millisecond}})
	clk := p.Node(0).Gate.clk
	var got []int
	_ = p.Start()
	CommitTo(&p.Node(1).Gate, 1, gateWork{&got, 1}, applyGateWork)
	if n := clk.PendingWaiters(); n != 1 {
		t.Fatalf("PendingWaiters = %d with one commit waiting, want 1", n)
	}
	p.Stop()
	if n := clk.PendingWaiters(); n != 0 {
		t.Fatalf("PendingWaiters = %d after Stop, want 0", n)
	}
	clk.Sleep(time.Second)
	if len(got) != 0 {
		t.Fatalf("applied %v after Stop, want the waiting work dropped", got)
	}
}
