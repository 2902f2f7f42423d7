package systems

import (
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

	g.Do(add(1))
	if !g.Crash() {
		t.Fatal("first Crash must report the node was up")
	}
	if g.Crash() {
		t.Fatal("second Crash must be a no-op")
	}
	g.Do(add(2))
	g.Do(add(3))
	if got := g.Backlog(); got != 2 {
		t.Fatalf("backlog = %d, want 2", got)
	}
	if n := g.Restart(); n != 2 {
		t.Fatalf("Restart replayed %d, want 2", n)
	}
	if g.Restart() != 0 {
		t.Fatal("Restart on an up node must be a no-op")
	}
	g.Do(add(4))
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
// buffered callback that re-enters Do on the same gate (drivers nest commit
// work) must not self-deadlock. Under the old implementation Restart ran
// the backlog holding g.mu, so the nested Do blocked forever.
func TestGateReplayReentrantDo(t *testing.T) {
	var g DurableGate
	var got []int
	g.Crash()
	g.Do(func() {
		got = append(got, 1)
		g.Do(func() { got = append(got, 2) })
	})
	done := make(chan int)
	go func() { done <- g.Restart() }()
	n := <-done
	// The nested Do arrives while the gate is still draining, so it is
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
	g.Do(func() {
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

// TestGateCommitToAllocs pins that committing on an open gate allocates
// nothing: the closure binding the work to its argument is made only when
// the gate has to keep the work for later.
func TestGateCommitToAllocs(t *testing.T) {
	got := make([]int, 0, 1)
	commit := func(g *DurableGate) func() {
		return func() {
			got = got[:0]
			CommitTo(g, 3, gateWork{&got, 1}, applyGateWork)
		}
	}
	t.Run("no log", func(t *testing.T) {
		var g DurableGate
		if n := testing.AllocsPerRun(1000, commit(&g)); n != 0 {
			t.Fatalf("CommitTo allocates %v times per commit, want 0", n)
		}
	})
	t.Run("batch-fsync log", func(t *testing.T) {
		clk := clocktest.New(t)
		var g DurableGate
		// Snapshots keep the log on its first segment, so the count is
		// the gate's and not the log's growth.
		g.Enable(clk, wal.New("n0", wal.Options{Fsync: wal.FsyncBatch, SnapshotEvery: 64}, clk))
		if n := testing.AllocsPerRun(1000, commit(&g)); n != 0 {
			t.Fatalf("CommitTo allocates %v times per commit, want 0", n)
		}
		if st := g.Stats(); st.Fsyncs == 0 || st.Snapshots == 0 {
			t.Fatalf("log stats = %+v, want fsyncs and snapshots", st)
		}
	})
}

// TestGateMixedWorkReplaysInArrivalOrder interleaves closures (Commit) and
// argument-bound work (CommitTo) across a crash that lands during one
// commit's durability wait and the writes buffered behind it: Restart
// replays all of it in arrival order, and the work of an open gate runs
// at once.
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
			clk.Sleep(2*wait + wait/2)
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
		for v := 1; v <= 6; v++ { // 4, 5 and 6 arrive at a crashed gate
			commit(v)
		}
		clk.Sleep(20 * wait)
		commit(7)
		commit(8)
	})()
	if backlog != 4 {
		t.Fatalf("backlog before Restart = %d, want 4", backlog)
	}
	if len(got) != 8 {
		t.Fatalf("applied %v, want 1..8", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("applied %v, want 1..8 in arrival order", got)
		}
	}
}
