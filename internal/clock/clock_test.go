package clock

import (
	"fmt"
	"testing"
	"time"
)

// hasFired reports whether w has a fire pending, consuming it, without moving
// the clock: Await prefers w to a timer already due.
func hasFired(v *AutoVirtual, w Waitable) bool {
	i, _, _ := Await(v, w, v.NewTimerAt(v.Now()))
	return i == 0
}

// The stepping below is a Sleep from outside the run: the caller becomes a
// transient actor, and the clock jumps through every deadline up to its own.

func TestVirtualSleepMovesNow(t *testing.T) {
	v := NewAutoVirtual()
	v.Sleep(90 * time.Second)
	if got, want := v.Now(), SimEpoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

// TestVirtualSleepUnblocksOnAdvance: an actor parked in Sleep stays parked
// while the clock advances to earlier deadlines, and wakes exactly at its own
// — between the other actor's wake-ups before and after it.
func TestVirtualSleepUnblocksOnAdvance(t *testing.T) {
	v := NewAutoVirtual()
	var log []string // appended under the execution token
	note := func(name string) {
		log = append(log, fmt.Sprintf("%s@%v", name, v.Now().Sub(SimEpoch)))
	}
	runActors(v, map[string]func(){
		"sleeper": func() { v.Sleep(time.Second); note("sleeper") },
		"stepper": func() {
			for i := 0; i < 4; i++ {
				v.Sleep(300 * time.Millisecond)
				note("stepper")
			}
		},
	})
	want := "[stepper@300ms stepper@600ms stepper@900ms sleeper@1s stepper@1.2s]"
	if fmt.Sprint(log) != want {
		t.Fatalf("woke as\n got %v\nwant %s", log, want)
	}
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestVirtualTimersFireInOrder awaits from outside the run: the caller is a
// transient actor, and the clock jumps to the earlier deadline first.
func TestVirtualTimersFireInOrder(t *testing.T) {
	v := NewAutoVirtual()
	tm1 := v.NewTimerAt(v.Now().Add(time.Second))
	tm2 := v.NewTimerAt(v.Now().Add(2 * time.Second))
	if i, _, ok := Await(v, tm2, tm1); i != 1 || !ok {
		t.Fatalf("Await = (%d, %v), want tm1 (1, true) first", i, ok)
	}
	if got := v.Now().Sub(SimEpoch); got != time.Second {
		t.Fatalf("tm1 fired at %v, want 1s", got)
	}
	Await(v, tm2)
	if got := v.Now().Sub(SimEpoch); got != 2*time.Second {
		t.Fatalf("tm2 fired at %v, want 2s", got)
	}
}

func TestVirtualTimerDoesNotFireEarly(t *testing.T) {
	v := NewAutoVirtual()
	tm := v.NewTimerAt(v.Now().Add(10 * time.Second))
	v.Sleep(9 * time.Second)
	if hasFired(v, tm) {
		t.Fatal("timer fired before its deadline")
	}
	v.Sleep(time.Second)
	if !hasFired(v, tm) {
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestVirtualTickerRepeats(t *testing.T) {
	v := NewAutoVirtual()
	tk := v.NewTicker(time.Second)
	defer tk.Stop()

	for i := 0; i < 5; i++ {
		v.Sleep(time.Second)
		if !hasFired(v, tk) {
			t.Fatalf("tick %d missing", i)
		}
	}
	if hasFired(v, tk) {
		t.Fatal("a consumed tick fired again")
	}
}

// TestVirtualTickerCoalescesUnconsumedFires: fires that arrive while one is
// still unconsumed are dropped, as time.Ticker drops ticks for a slow
// receiver, and the ticker keeps its period.
func TestVirtualTickerCoalescesUnconsumedFires(t *testing.T) {
	v := NewAutoVirtual()
	tk := v.NewTicker(time.Second)
	defer tk.Stop()
	v.Sleep(5*time.Second + time.Millisecond) // five fires, none consumed
	if !hasFired(v, tk) {
		t.Fatal("no fire pending after five periods")
	}
	if hasFired(v, tk) {
		t.Fatal("five unconsumed fires left more than one pending")
	}
	Await(v, tk)
	if got := v.Now().Sub(SimEpoch); got != 6*time.Second {
		t.Fatalf("next fire at +%v, want +6s", got)
	}
}

func TestVirtualTickerStop(t *testing.T) {
	v := NewAutoVirtual()
	tk := v.NewTicker(time.Second)
	tk.Stop()
	v.Sleep(5 * time.Second)
	if hasFired(v, tk) {
		t.Fatal("stopped ticker fired")
	}
}

func TestVirtualTimerStopPreventsFire(t *testing.T) {
	v := NewAutoVirtual()
	tm := v.NewTimerAt(v.Now().Add(time.Second))
	tm.Stop()
	v.Sleep(2 * time.Second)
	if hasFired(v, tm) {
		t.Fatal("stopped timer fired")
	}
}

// TestVirtualDeterministicOrderAtSameInstant: waiters armed from outside the
// run tie by creation order, whoever awaits them. Actor "a" awaits the timer
// armed second, "b" the one armed first, so b must wake first.
func TestVirtualDeterministicOrderAtSameInstant(t *testing.T) {
	v := NewAutoVirtual()
	first := v.NewTimerAt(v.Now().Add(time.Second))
	second := v.NewTimerAt(v.Now().Add(time.Second))
	var order []string // appended under the execution token
	runActors(v, map[string]func(){
		"a": func() { Await(v, second); order = append(order, "a") },
		"b": func() { Await(v, first); order = append(order, "b") },
	})
	if fmt.Sprint(order) != "[b a]" {
		t.Fatalf("woke in order %v, want [b a]: creation order breaks the tie", order)
	}
}

func TestVirtualPendingWaiters(t *testing.T) {
	v := NewAutoVirtual()
	tm := v.NewTimerAt(v.Now().Add(time.Second))
	if got := v.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters = %d, want 1", got)
	}
	tm.Stop()
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters after Stop = %d, want 0", got)
	}
}

func TestVirtualNewTimerAtFiresAtAbsoluteDeadline(t *testing.T) {
	v := NewAutoVirtual()
	want := SimEpoch.Add(10 * time.Millisecond)
	tm := v.NewTimerAt(want)
	if hasFired(v, tm) {
		t.Fatal("timer fired before its deadline")
	}
	v.Sleep(9 * time.Millisecond)
	if hasFired(v, tm) {
		t.Fatal("timer fired 1ms early")
	}
	Await(v, tm)
	if got := v.Now(); !got.Equal(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

func TestVirtualNewTimerAtPastDeadlineFiresImmediately(t *testing.T) {
	v := NewAutoVirtual()
	// The race NewTimerAt exists to close: the clock advanced past the
	// intended deadline before the caller could arm the timer. It must
	// fire without the clock moving.
	tm := v.NewTimerAt(SimEpoch.Add(-time.Second))
	if !hasFired(v, tm) {
		t.Fatal("past-deadline timer must fire immediately")
	}
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("immediate-fire timer left %d pending waiters", got)
	}
}

// lockedNow reads the clock's instant under its mutex, as every method but
// Now does.
func lockedNow(v *AutoVirtual) time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// TestVirtualNowIsTheLockedInstant: Now takes no lock, and what it returns is
// == to the instant the timer heap runs on — same wall encoding, same
// location, no monotonic reading — whether the clock is stepped by sleeps
// from outside the run or jumps for its own actors: after timer, ticker and
// sleep jumps, inside an event at its deadline, and after an absolute
// deadline handed in from another location.
func TestVirtualNowIsTheLockedInstant(t *testing.T) {
	check := func(t *testing.T, av *AutoVirtual, when string) {
		t.Helper()
		if got, want := av.Now(), lockedNow(av); got != want {
			t.Errorf("%s: Now() = %#v, the clock is at %#v", when, got, want)
		}
	}
	wellFormed := func(t *testing.T, av *AutoVirtual) {
		t.Helper()
		if av.Now().Location() != time.UTC || av.Now() != av.Now().Round(0) {
			t.Fatalf("Now() = %#v moved location or carries a monotonic reading", av.Now())
		}
	}
	t.Run("stepped", func(t *testing.T) {
		av := NewAutoVirtual()
		check(t, av, "at start")
		tick := av.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		timer := av.NewTimerAt(av.Now().Add(45 * time.Millisecond))
		abroad := av.NewTimerAt(av.Now().Add(70 * time.Millisecond).In(time.FixedZone("abroad", 7200)))
		var fired time.Time
		ev := NewEvent(av, "probe", func() { fired = av.Now(); check(t, av, "inside an event") })
		defer ev.Stop()
		ev.After(50 * time.Millisecond)
		for i := 0; i < 10; i++ {
			av.Sleep(11 * time.Millisecond)
			check(t, av, "after a sleep from outside")
		}
		if !hasFired(av, timer) || !hasFired(av, abroad) {
			t.Fatal("timers due 45ms and 70ms in did not fire within 110ms")
		}
		check(t, av, "after awaiting fired timers")
		if want := lockedNow(av).Add(-60 * time.Millisecond); fired != want {
			t.Fatalf("event saw Now() = %v at its deadline, want %v", fired, want)
		}
		wellFormed(t, av)
	})
	t.Run("auto", func(t *testing.T) {
		av := NewAutoVirtual()
		check(t, av, "at start")
		var fired time.Time
		ev := NewEvent(av, "probe", func() { fired = av.Now(); check(t, av, "inside an event") })
		defer ev.Stop()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h := Register(av, "jumper")
			defer h.Close()
			tick := av.NewTicker(7 * time.Second)
			defer tick.Stop()
			for i := 0; i < 5; i++ {
				av.Sleep(time.Duration(i+1) * time.Hour)
				check(t, av, "after a sleep jump")
				Await(av, tick)
				check(t, av, "after a ticker jump")
			}
			ev.After(50 * time.Millisecond)
			abroad := av.NewTimerAt(av.Now().Add(70 * time.Millisecond).In(time.FixedZone("abroad", 7200)))
			Await(av, abroad)
			check(t, av, "after a deadline from another location")
			if want := lockedNow(av).Add(-20 * time.Millisecond); fired != want {
				t.Errorf("event saw Now() = %v at its deadline, want %v", fired, want)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("auto-virtual actor did not finish")
		}
		if got := av.Now().Sub(SimEpoch); got < 15*time.Hour {
			t.Fatalf("clock advanced %v, want at least the 15h slept", got)
		}
		wellFormed(t, av)
	})
}
