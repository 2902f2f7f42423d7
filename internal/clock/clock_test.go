package clock

import (
	"fmt"
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	c := New()
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v, want between %v and %v", got, before, after)
	}
}

func TestRealSince(t *testing.T) {
	c := New()
	start := c.Now()
	c.Sleep(time.Millisecond)
	if d := c.Since(start); d < time.Millisecond {
		t.Fatalf("Since = %v, want >= 1ms", d)
	}
}

func TestRealTickerDelivers(t *testing.T) {
	c := New()
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("ticker did not fire within 1s")
	}
}

func TestRealTimerDelivers(t *testing.T) {
	c := New()
	tm := c.NewTimerAt(c.Now().Add(time.Millisecond))
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("timer did not fire within 1s")
	}
	tm.Stop() // after the fire: a no-op
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

func TestVirtualTimersFireInOrder(t *testing.T) {
	v := NewAutoVirtual()
	tm1 := v.NewTimerAt(v.Now().Add(time.Second))
	tm2 := v.NewTimerAt(v.Now().Add(2 * time.Second))
	v.Sleep(3 * time.Second)

	t1 := <-tm1.C()
	t2 := <-tm2.C()
	if !t1.Before(t2) {
		t.Fatalf("expected tm1 (%v) to fire before tm2 (%v)", t1, t2)
	}
}

func TestVirtualTimerDoesNotFireEarly(t *testing.T) {
	v := NewAutoVirtual()
	tm := v.NewTimerAt(v.Now().Add(10 * time.Second))
	v.Sleep(9 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired before its deadline")
	default:
	}
	v.Sleep(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestVirtualTickerRepeats(t *testing.T) {
	v := NewAutoVirtual()
	tk := v.NewTicker(time.Second)
	defer tk.Stop()

	fired := 0
	for i := 0; i < 5; i++ {
		v.Sleep(time.Second)
		select {
		case <-tk.C():
			fired++
		default:
			t.Fatalf("tick %d missing", i)
		}
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
}

func TestVirtualTickerStop(t *testing.T) {
	v := NewAutoVirtual()
	tk := v.NewTicker(time.Second)
	tk.Stop()
	v.Sleep(5 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestVirtualTimerStopPreventsFire(t *testing.T) {
	v := NewAutoVirtual()
	tm := v.NewTimerAt(v.Now().Add(time.Second))
	tm.Stop()
	v.Sleep(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
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
	select {
	case <-tm.C():
		t.Fatal("timer fired before its deadline")
	default:
	}
	v.Sleep(9 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired 1ms early")
	default:
	}
	v.Sleep(time.Millisecond)
	select {
	case at := <-tm.C():
		if !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its exact deadline")
	}
}

func TestVirtualNewTimerAtPastDeadlineFiresImmediately(t *testing.T) {
	v := NewAutoVirtual()
	// The race NewTimerAt exists to close: the clock advanced past the
	// intended deadline before the caller could arm the timer. It must
	// fire without the clock moving.
	tm := v.NewTimerAt(SimEpoch.Add(-time.Second))
	select {
	case <-tm.C():
	default:
		t.Fatal("past-deadline timer must fire immediately")
	}
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("immediate-fire timer left %d pending waiters", got)
	}
}

func TestRealNewTimerAt(t *testing.T) {
	clk := New()
	start := time.Now()
	tm := clk.NewTimerAt(start.Add(20 * time.Millisecond))
	select {
	case <-tm.C():
		if d := time.Since(start); d < 15*time.Millisecond {
			t.Fatalf("fired after %v, want ~20ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	// A past deadline fires promptly.
	tm2 := clk.NewTimerAt(start)
	select {
	case <-tm2.C():
	case <-time.After(time.Second):
		t.Fatal("past-deadline timer did not fire")
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
		if at := <-timer.C(); !at.Equal(av.Now().Add(-65 * time.Millisecond)) {
			t.Fatalf("timer fired at %v", at)
		}
		<-abroad.C()
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
