package clock

import (
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
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("timer did not fire within 1s")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should return false")
	}
}

func TestVirtualAdvanceMovesNow(t *testing.T) {
	start := time.Date(2023, 12, 11, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	v.Advance(90 * time.Second)
	if got, want := v.Now(), start.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

func TestVirtualAfterFiresInOrder(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	ch1 := v.After(time.Second)
	ch2 := v.After(2 * time.Second)
	v.Advance(3 * time.Second)

	t1 := <-ch1
	t2 := <-ch2
	if !t1.Before(t2) {
		t.Fatalf("expected ch1 (%v) to fire before ch2 (%v)", t1, t2)
	}
}

func TestVirtualAfterDoesNotFireEarly(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	ch := v.After(10 * time.Second)
	v.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before its deadline")
	default:
	}
	v.Advance(time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("After did not fire at its deadline")
	}
}

func TestVirtualTickerRepeats(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	tk := v.NewTicker(time.Second)
	defer tk.Stop()

	fired := 0
	for i := 0; i < 5; i++ {
		v.Advance(time.Second)
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
	v := NewVirtual(time.Unix(0, 0))
	tk := v.NewTicker(time.Second)
	tk.Stop()
	v.Advance(5 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestVirtualTickerReset(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	tk := v.NewTicker(time.Hour)
	tk.Reset(time.Second)
	v.Advance(time.Second)
	select {
	case <-tk.C():
	default:
		t.Fatal("reset ticker did not fire at new period")
	}
}

func TestVirtualTimerStopPreventsFire(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	tm := v.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop before fire should return true")
	}
	v.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestVirtualTimerReset(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	tm := v.NewTimer(time.Hour)
	tm.Reset(time.Second)
	v.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire")
	}
}

func TestVirtualSleepUnblocksOnAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		v.Sleep(time.Second)
		close(done)
	}()
	// Let the sleeper register its waiter.
	for v.PendingWaiters() == 0 {
		time.Sleep(time.Microsecond)
	}
	v.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not unblock after Advance")
	}
}

func TestVirtualDeterministicOrderAtSameInstant(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	var order []int
	ch1 := v.After(time.Second)
	ch2 := v.After(time.Second)
	v.Advance(time.Second)
	// Both fired at the same instant; FIFO registration order must hold in
	// the heap (seq tiebreak), observable via buffered sends already done.
	select {
	case <-ch1:
		order = append(order, 1)
	default:
		t.Fatal("ch1 missing")
	}
	select {
	case <-ch2:
		order = append(order, 2)
	default:
		t.Fatal("ch2 missing")
	}
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestVirtualPendingWaiters(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	tm := v.NewTimer(time.Second)
	if got := v.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters = %d, want 1", got)
	}
	tm.Stop()
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters after Stop = %d, want 0", got)
	}
}

func TestVirtualNewTimerAtFiresAtAbsoluteDeadline(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	tm := v.NewTimerAt(time.Unix(0, 0).Add(10 * time.Millisecond))
	select {
	case <-tm.C():
		t.Fatal("timer fired before its deadline")
	default:
	}
	v.Advance(9 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired 1ms early")
	default:
	}
	v.Advance(time.Millisecond)
	select {
	case at := <-tm.C():
		if want := time.Unix(0, 0).Add(10 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its exact deadline")
	}
}

func TestVirtualNewTimerAtPastDeadlineFiresImmediately(t *testing.T) {
	v := NewVirtual(time.Unix(100, 0))
	// The race NewTimerAt exists to close: the clock advanced past the
	// intended deadline before the caller could arm the timer. It must
	// fire without any further Advance.
	tm := v.NewTimerAt(time.Unix(99, 0))
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
func lockedNow(v *Virtual) time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// TestVirtualNowIsTheLockedInstant: Now takes no lock, and what it returns is
// == to the instant the timer heap runs on — same wall encoding, same
// location, no monotonic reading — after Advance, after timer and ticker
// fires, after an absolute deadline handed in from another location, and
// after an AutoVirtual's jumps.
func TestVirtualNowIsTheLockedInstant(t *testing.T) {
	check := func(t *testing.T, v *Virtual, when string) {
		t.Helper()
		if got, want := v.Now(), lockedNow(v); got != want {
			t.Errorf("%s: Now() = %#v, the clock is at %#v", when, got, want)
		}
	}
	t.Run("stepped", func(t *testing.T) {
		v := NewVirtual(time.Now()) // a start with a monotonic reading
		check(t, v, "at start")
		if v.Now() != v.Now().Round(0) {
			t.Fatal("Now carries a monotonic reading")
		}
		tick := v.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		timer := v.NewTimer(45 * time.Millisecond)
		abroad := v.NewTimerAt(v.Now().Add(70 * time.Millisecond).In(time.FixedZone("abroad", 7200)))
		var fired time.Time
		ev := NewEvent(v, "probe", func() { fired = v.Now(); check(t, v, "inside an event") })
		defer ev.Stop()
		ev.After(50 * time.Millisecond)
		for i := 0; i < 10; i++ {
			v.Advance(11 * time.Millisecond)
			check(t, v, "after Advance")
		}
		if at := <-timer.C(); !at.Equal(v.Now().Add(-65 * time.Millisecond)) {
			t.Fatalf("timer fired at %v", at)
		}
		<-abroad.C()
		if want := lockedNow(v).Add(-60 * time.Millisecond); fired != want {
			t.Fatalf("event saw Now() = %v at its deadline, want %v", fired, want)
		}
		if v.Now().Location() != time.Local {
			t.Fatalf("Now() moved to location %v", v.Now().Location())
		}
	})
	t.Run("auto", func(t *testing.T) {
		av := NewAutoVirtual()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h := Register(av, "jumper")
			defer h.Close()
			tick := av.NewTicker(7 * time.Second)
			defer tick.Stop()
			for i := 0; i < 5; i++ {
				av.Sleep(time.Duration(i+1) * time.Hour)
				check(t, av.Virtual, "after a sleep jump")
				Await(av, tick)
				check(t, av.Virtual, "after a ticker jump")
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
	})
}
