package systems

import (
	"fmt"
	"sync"
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
	if n := g.Restart(); n != 2 {
		t.Fatalf("Restart replayed %d, want 2", n)
	}
	if g.Restart() != 0 {
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
	done := make(chan int)
	go func() { done <- g.Restart() }()
	n := <-done
	// The nested commit arrives while the gate is still draining, so it is
	// buffered behind the replayed prefix and drained by the next round.
	if n != 2 {
		t.Fatalf("Restart replayed %d, want 2 (outer + nested)", n)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", got)
	}
	if g.Down() {
		t.Fatal("gate must be open after replay drains")
	}
}

// TestGateConcurrentRestartIsNoOp pins that a Restart racing an in-progress
// replay neither double-replays nor reopens the gate early.
func TestGateConcurrentRestartIsNoOp(t *testing.T) {
	var g DurableGate
	var mu sync.Mutex
	count := 0
	g.Crash()
	release := make(chan struct{})
	entered := make(chan struct{})
	g.Commit(1, func() {
		close(entered)
		<-release
		mu.Lock()
		count++
		mu.Unlock()
	})
	done := make(chan int)
	go func() { done <- g.Restart() }()
	<-entered // first Restart is mid-replay, outside the lock
	if n := g.Restart(); n != 0 {
		t.Fatalf("concurrent Restart replayed %d, want 0", n)
	}
	close(release)
	if n := <-done; n != 1 {
		t.Fatalf("Restart replayed %d, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("callback ran %d times, want 1", count)
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
	var backlog int
	clock.Go(clk, []string{"committer", "crasher"}, func(a int) {
		if a == 1 {
			// 1 and 2 have applied; 3 is in its durability wait.
			clk.Sleep(2*wait + wait/4)
			if !g.Crash() {
				t.Error("Crash reported the node down already")
			}
			clk.Sleep(10 * wait)
			backlog = g.Backlog()
			if n := g.Restart(); n != 4 {
				t.Errorf("Restart replayed %d tasks, want 4", n)
			}
			return
		}
		// 1 applies at +1 wait and 2 at +2; 3, committed at +1.5, is due
		// at +2.5 and buffered by the crash. Its Commit returns then, and
		// 4, 5 and 6 arrive at a crashed gate.
		commit(1)
		commit(2)
		clk.Sleep(wait / 2)
		for v := 3; v <= 6; v++ {
			commit(v)
		}
		clk.Sleep(20 * wait)
		commit(7)
		commit(8)
	})()
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
	if n := g.Restart(); n != 4 {
		t.Fatalf("Restart replayed %d tasks, want 4", n)
	}
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
