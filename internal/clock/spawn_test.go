package clock

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeStopBeatsReadyInboxAndTick: when stop, an inbox message and a
// tick are all ready at once, Serve returns without handling either.
func TestServeStopBeatsReadyInboxAndTick(t *testing.T) {
	av := NewAutoVirtual()
	stop := NewGate(av)
	inbox := NewMailbox[int](av, 4)
	var msgs, ticks int
	Go(av, []string{"driver", "server"}, func(i int) {
		if i == 0 { // driver
			inbox.Send(1, nil)
			av.Sleep(20 * time.Millisecond)
			inbox.Send(2, nil) // the server is still busy with message 1
			stop.Close()
			return
		}
		Serve(av, stop, inbox, 10*time.Millisecond, func(int) {
			msgs++
			av.Sleep(50 * time.Millisecond) // ticks and message 2 pile up meanwhile
		}, func() { ticks++ })
	})()
	if msgs != 1 || ticks != 0 {
		t.Fatalf("after stop: handled %d messages and %d ticks, want 1 and 0", msgs, ticks)
	}
	if inbox.Len() != 1 {
		t.Fatalf("inbox holds %d messages, want message 2 left unhandled", inbox.Len())
	}
	if n := av.PendingWaiters(); n != 0 {
		t.Fatalf("%d waiters left armed: Serve did not stop its ticker", n)
	}
}

// TestGoJoinWaitsForEveryActor: the join returns once every actor of the
// wave has finished and closed its handle, whether an actor joins it or a
// goroutine outside the run does; an empty wave joins at once.
func TestGoJoinWaitsForEveryActor(t *testing.T) {
	t.Run("AutoVirtual", func(t *testing.T) {
		av := NewAutoVirtual()
		h := Register(av, "main")
		defer h.Close()
		var finished atomic.Int64
		Go(av, []string{"w0", "w1", "w2"}, func(i int) {
			av.Sleep(time.Duration(i+1) * time.Second)
			finished.Add(1)
		})()
		if n := finished.Load(); n != 3 {
			t.Fatalf("join returned after %d of 3 actors finished", n)
		}
		if got := av.Now().Sub(SimEpoch); got != 3*time.Second {
			t.Fatalf("join returned at +%v, want +3s (the slowest actor)", got)
		}
		av.mu.Lock()
		left := len(av.actors)
		av.mu.Unlock()
		if left != 1 {
			t.Fatalf("%d actors registered after the join, want only the joiner", left)
		}
	})
	t.Run("Outside", func(t *testing.T) {
		av := NewAutoVirtual()
		var finished atomic.Int64
		Go(av, []string{"w0", "w1", "w2"}, func(i int) {
			av.Sleep(time.Duration(i) * time.Second)
			finished.Add(1)
		})()
		if n := finished.Load(); n != 3 {
			t.Fatalf("join returned after %d of 3 actors finished", n)
		}
		if got := av.Now().Sub(SimEpoch); got != 2*time.Second {
			t.Fatalf("join returned at +%v, want +2s (the slowest actor)", got)
		}
	})
	t.Run("Empty", func(t *testing.T) {
		Go(NewAutoVirtual(), nil, func(int) { t.Error("an empty wave ran fn") })()
	})
}

// TestGoReleasesWaveInNameOrder: however the names are listed, and however
// the OS schedules the goroutines, a wave runs in name order — string
// order, so n10 before n2.
func TestGoReleasesWaveInNameOrder(t *testing.T) {
	names := []string{"n3", "n2", "n10", "n1"}
	want := []string{"n1", "n10", "n2", "n3"}
	for trial := 0; trial < 20; trial++ {
		av := NewAutoVirtual()
		var ran []string
		Go(av, names, func(i int) { ran = append(ran, names[i]) })()
		if !reflect.DeepEqual(ran, want) {
			t.Fatalf("trial %d: wave ran %v, want %v", trial, ran, want)
		}
	}
}

// TestServeTickerTiesKeyUnderActorName: Serve arms its ticker as the actor,
// so the ticker's deadline ties by actor name, not by arming order or by
// who called Go. "b" arms first, for a first tick at 20ms; "a" arms 10ms
// later, for a first tick at the same instant, and still fires first.
func TestServeTickerTiesKeyUnderActorName(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "main")
	defer h.Close()
	stop := NewGate(av)
	var fired []string
	serve := func(name string, period time.Duration) func() {
		return Go(av, []string{name}, func(int) {
			Serve[struct{}](av, stop, nil, period, nil, func() {
				fired = append(fired, fmt.Sprintf("%s@%v", name, av.Now().Sub(SimEpoch)))
			})
		})
	}
	joinB := serve("b", 20*time.Millisecond)
	av.Sleep(10 * time.Millisecond)
	joinA := serve("a", 10*time.Millisecond)
	av.Sleep(15 * time.Millisecond)
	stop.Close()
	joinA()
	joinB()
	if want := []string{"a@20ms", "b@20ms"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("ticks fired %v, want %v", fired, want)
	}
}

// TestForkWaveHoldsTheToken: actor a forks a wave while actor b is ready. No
// one gets the token until a's wave has registered, so b always runs after
// the wave arrived and forks its own wave separately: the two waves are
// released one after the other, never merged by name, whichever goroutines
// the OS started first and however many Ps it had to start them on.
func TestForkWaveHoldsTheToken(t *testing.T) {
	run := func() []string {
		av := NewAutoVirtual()
		var log []string // appended under the execution token
		child := func(names ...string) func() {
			return Go(av, names, func(i int) { log = append(log, names[i]) })
		}
		Go(av, []string{"a", "b"}, func(i int) {
			if i == 0 {
				log = append(log, "a")
				child("x2", "x4")() // parks a in the join with b ready
				return
			}
			log = append(log, "b")
			child("x1", "x3")()
		})()
		return log
	}
	want := []string{"a", "b", "x2", "x4", "x1", "x3"}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < 50; i++ {
				if got := run(); !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d granted %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestWavesOfOneTurnReleaseTogether: the waves an actor forks before it
// parks join the run queue as one batch in name order, even when the first
// wave's goroutines all registered before the second wave was forked.
func TestWavesOfOneTurnReleaseTogether(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for i := 0; i < 50; i++ {
		av := NewAutoVirtual()
		var log []string // appended under the execution token
		child := func(names ...string) func() {
			return Go(av, names, func(i int) { log = append(log, names[i]) })
		}
		Go(av, []string{"forker"}, func(int) {
			first := child("y2", "y4")
			for registering := 2; registering > 0; runtime.Gosched() {
				av.mu.Lock()
				registering = av.forking
				av.mu.Unlock()
			}
			second := child("y1", "y3")
			first()
			second()
		})()
		if want := []string{"y1", "y2", "y3", "y4"}; !reflect.DeepEqual(log, want) {
			t.Fatalf("run %d granted %v, want %v", i, log, want)
		}
	}
}
