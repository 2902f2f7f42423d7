package clock

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestLoopStopBeatsReadyInboxAndTick: messages posted at the instant the
// loop's period falls due are all handled before the tick; and when the
// loop is stopped with a message queued and its next tick due at that very
// instant, it handles neither and leaves no deadline armed.
func TestLoopStopBeatsReadyInboxAndTick(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "driver") // sorts before "server": it wakes first at a tie
	defer h.Close()
	var log []string
	serve := func(name string) *Loop[int] {
		l := NewLoop(av, name, func(m int) { log = append(log, fmt.Sprint(name, " msg", m)) },
			func() { log = append(log, fmt.Sprint(name, " tick@", av.Now().Sub(SimEpoch))) })
		l.Every(10 * time.Millisecond)
		return l
	}
	first := serve("server")
	av.Sleep(10 * time.Millisecond) // the first tick is due now, not yet run
	first.Post(1)
	first.Post(2)
	av.Sleep(time.Millisecond)
	first.Stop()
	second := serve("server2")
	av.Sleep(10 * time.Millisecond) // its first tick is due now, not yet run
	second.Post(3)
	second.Stop()
	av.Sleep(50 * time.Millisecond)
	if want := "[server msg1 server msg2 server tick@10ms]"; fmt.Sprint(log) != want {
		t.Fatalf("handled %v, want %s", log, want)
	}
	if n := av.PendingWaiters(); n != 0 {
		t.Fatalf("%d waiters left armed: Stop did not disarm the period", n)
	}
	second.Post(4)
	av.Sleep(time.Millisecond)
	if len(log) != 3 {
		t.Fatalf("a stopped loop handled %v", log[3:])
	}
}

// TestForkReleasesWaveInNameOrder: however the names are listed, and
// however the OS schedules the goroutines, a fork wave runs in name order —
// string order, so n10 before n2.
func TestForkReleasesWaveInNameOrder(t *testing.T) {
	names := []string{"n3", "n2", "n10", "n1"}
	want := []string{"n1", "n10", "n2", "n3"}
	for trial := 0; trial < 20; trial++ {
		av := NewAutoVirtual()
		var ran []string // appended under the execution token
		bodies := map[string]func(){}
		for _, name := range names {
			bodies[name] = func() { ran = append(ran, name) }
		}
		runActors(av, bodies)
		if !reflect.DeepEqual(ran, want) {
			t.Fatalf("trial %d: wave ran %v, want %v", trial, ran, want)
		}
	}
}

// TestLoopPeriodTiesKeyUnderItsName: a loop's first deadline ties by the
// loop's name, not by arming order or by who armed it, and the clock
// re-arms each repeat as it fires, under its own sequence. "b" arms first,
// for a first tick at 20ms; "a" arms 10ms later, for a first tick at the
// same instant, and still runs first. At 40ms b's repeat, re-armed at 20ms,
// runs before a's, re-armed at 30ms.
func TestLoopPeriodTiesKeyUnderItsName(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "main")
	defer h.Close()
	var fired []string
	loop := func(name string, period time.Duration) *Loop[int] {
		l := NewLoop(av, name, func(int) {}, func() {
			fired = append(fired, fmt.Sprintf("%s@%v", name, av.Now().Sub(SimEpoch)))
		})
		l.Every(period)
		return l
	}
	b := loop("b", 20*time.Millisecond)
	av.Sleep(10 * time.Millisecond)
	a := loop("a", 10*time.Millisecond)
	av.Sleep(35 * time.Millisecond)
	a.Stop()
	b.Stop()
	if want := []string{"a@20ms", "b@20ms", "a@30ms", "b@40ms", "a@40ms"}; !reflect.DeepEqual(fired, want) {
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
			return wave(av, names, func(i int) { log = append(log, names[i]) })
		}
		runActors(av, map[string]func(){
			"a": func() {
				log = append(log, "a")
				child("x2", "x4")() // parks a in the join with b ready
			},
			"b": func() {
				log = append(log, "b")
				child("x1", "x3")()
			},
		})
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
			return wave(av, names, func(i int) { log = append(log, names[i]) })
		}
		runActors(av, map[string]func(){"forker": func() {
			first := child("y2", "y4")
			for registering := 2; registering > 0; runtime.Gosched() {
				av.mu.Lock()
				registering = av.forking
				av.mu.Unlock()
			}
			second := child("y1", "y3")
			first()
			second()
		}})
		if want := []string{"y1", "y2", "y3", "y4"}; !reflect.DeepEqual(log, want) {
			t.Fatalf("run %d granted %v, want %v", i, log, want)
		}
	}
}
