package clock

import (
	"fmt"
	"reflect"
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
// wave has finished and closed its handle, on the virtual clock (joined by
// an actor) and on the real one; an empty wave joins at once.
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
	t.Run("Real", func(t *testing.T) {
		var finished atomic.Int64
		Go(Real{}, []string{"w0", "w1", "w2"}, func(i int) {
			Real{}.Sleep(time.Duration(i) * time.Millisecond)
			finished.Add(1)
		})()
		if n := finished.Load(); n != 3 {
			t.Fatalf("join returned after %d of 3 actors finished", n)
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
