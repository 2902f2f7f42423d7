package systems

import (
	"sync"
	"testing"
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
