package clock

import (
	"fmt"
	"testing"
	"time"
)

// The stepping below is a Sleep of an unregistered caller: the clock runs
// every event and deadline up to its own.

func TestVirtualSleepMovesNow(t *testing.T) {
	v := NewAutoVirtual()
	v.Sleep(90 * time.Second)
	if got, want := v.Now(), SimEpoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

// TestVirtualSleepUnblocksOnAdvance: a Sleep runs the events whose
// deadlines fall before its own and returns exactly at its own — between a
// stepping event's runs before and after it.
func TestVirtualSleepUnblocksOnAdvance(t *testing.T) {
	v := NewAutoVirtual()
	var log []string
	note := func(name string) {
		log = append(log, fmt.Sprintf("%s@%v", name, v.Now().Sub(SimEpoch)))
	}
	steps := 0
	var stepper *Event
	stepper = NewEvent(v, "stepper", func() {
		note("stepper")
		if steps++; steps < 4 {
			stepper.After(300 * time.Millisecond)
		}
	})
	stepper.After(300 * time.Millisecond)
	v.Sleep(time.Second)
	note("sleeper")
	v.Sleep(time.Second)
	want := "[stepper@300ms stepper@600ms stepper@900ms sleeper@1s stepper@1.2s]"
	if fmt.Sprint(log) != want {
		t.Fatalf("woke as\n got %v\nwant %s", log, want)
	}
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestVirtualEveryRepeats: an event armed by Every runs once per period,
// on the period, until it is stopped, and leaves the heap then.
func TestVirtualEveryRepeats(t *testing.T) {
	v := NewAutoVirtual()
	var at []time.Duration
	ev := NewEvent(v, "tick", func() { at = append(at, v.Now().Sub(SimEpoch)) })
	ev.Every(time.Second)
	v.Sleep(5*time.Second + time.Millisecond)
	if fmt.Sprint(at) != "[1s 2s 3s 4s 5s]" {
		t.Fatalf("ran at %v, want once a second", at)
	}
	ev.Stop()
	if n := v.PendingWaiters(); n != 0 {
		t.Fatalf("PendingWaiters = %d after Stop, want 0", n)
	}
	v.Sleep(5 * time.Second)
	if len(at) != 5 {
		t.Fatalf("stopped event ran again at %v", at[5:])
	}
}

func TestVirtualPendingWaiters(t *testing.T) {
	v := NewAutoVirtual()
	ev := NewEvent(v, "ev", func() {})
	ev.After(time.Second)
	if got := v.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters = %d, want 1", got)
	}
	ev.Stop()
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters after Stop = %d, want 0", got)
	}
}

// TestVirtualEventsFireInOrder: events armed from outside the run fire in
// deadline order, not in name or arming order, each with the clock at its
// own deadline; the outsider's Sleep jumps through both.
func TestVirtualEventsFireInOrder(t *testing.T) {
	v := NewAutoVirtual()
	var log []string
	note := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%v", name, v.Now().Sub(SimEpoch))) }
	}
	NewEvent(v, "a", note("a")).After(2 * time.Second)
	NewEvent(v, "b", note("b")).After(time.Second)
	v.Sleep(3 * time.Second)
	if want := "[b@1s a@2s]"; fmt.Sprint(log) != want {
		t.Fatalf("fired as %v, want %s", log, want)
	}
}

func TestVirtualEventDoesNotFireEarly(t *testing.T) {
	v := NewAutoVirtual()
	var fired []time.Duration
	NewEvent(v, "ev", func() { fired = append(fired, v.Now().Sub(SimEpoch)) }).After(10 * time.Second)
	v.Sleep(9 * time.Second)
	if len(fired) != 0 {
		t.Fatalf("event fired at %v, before its deadline", fired)
	}
	v.Sleep(2 * time.Second)
	if fmt.Sprint(fired) != "[10s]" {
		t.Fatalf("event fired at %v, want once at its deadline, 10s", fired)
	}
}

func TestVirtualEventAtFiresAtAbsoluteDeadline(t *testing.T) {
	v := NewAutoVirtual()
	want := SimEpoch.Add(10 * time.Millisecond)
	var fired time.Time
	NewEvent(v, "ev", func() { fired = v.Now() }).At(want)
	v.Sleep(9 * time.Millisecond)
	if !fired.IsZero() {
		t.Fatal("event fired 1ms early")
	}
	v.Sleep(time.Millisecond)
	if !fired.Equal(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestVirtualEventAtPastDeadlineIsOwedAtOnce: a deadline the clock has
// already passed never enters the heap; the run is owed at once and is the
// first thing the next Sleep does, without the clock moving.
func TestVirtualEventAtPastDeadlineIsOwedAtOnce(t *testing.T) {
	v := NewAutoVirtual()
	var ranAt time.Time
	past := NewEvent(v, "past", func() { ranAt = v.Now() })
	past.At(SimEpoch.Add(-time.Second))
	if !ranAt.IsZero() || v.PendingWaiters() != 0 || !v.Now().Equal(SimEpoch) {
		t.Fatalf("past deadline: ran at %v, %d pending, clock at %v", ranAt, v.PendingWaiters(), v.Now())
	}
	v.Sleep(time.Second)
	if !ranAt.Equal(SimEpoch) {
		t.Fatalf("past deadline ran at %v, want the next Sleep's start, %v", ranAt, SimEpoch)
	}
}

// TestVirtualDeterministicOrderAtSameInstant: deadlines of events tie by
// the events' names, whoever armed them and in whatever order. "b" is
// armed first, by an unregistered caller, and "a" second, by the caller
// registered as "z"; a must fire first.
func TestVirtualDeterministicOrderAtSameInstant(t *testing.T) {
	v := NewAutoVirtual()
	var order []string
	at := v.Now().Add(time.Second)
	NewEvent(v, "b", func() { order = append(order, "b") }).At(at)
	a := NewEvent(v, "a", func() { order = append(order, "a") })
	h := Register(v, "z")
	a.At(at)
	v.Sleep(2 * time.Second)
	h.Close()
	if fmt.Sprint(order) != "[a b]" {
		t.Fatalf("fired in order %v, want [a b]: the names break the tie", order)
	}
}

// TestVirtualNowIsWellFormed: what Now returns is == to the instant the
// clock advanced to, in SimEpoch's encoding — same location, no monotonic
// reading — whether the clock is stepped by an unregistered caller's sleeps
// or jumps for a registered one: after sleep jumps, inside an event at its
// deadline or period, and at and after an absolute deadline handed in from
// another location.
func TestVirtualNowIsWellFormed(t *testing.T) {
	check := func(t *testing.T, av *AutoVirtual, when string) {
		t.Helper()
		if got, want := av.Now(), SimEpoch.Add(av.Now().Sub(SimEpoch)); got != want {
			t.Errorf("%s: Now() = %#v, want %#v", when, got, want)
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
		tick := NewEvent(av, "tick", func() { check(t, av, "inside a periodic event") })
		tick.Every(30 * time.Millisecond)
		defer tick.Stop()
		var fired, abroadAt time.Time
		ev := NewEvent(av, "probe", func() { fired = av.Now(); check(t, av, "inside an event") })
		defer ev.Stop()
		ev.After(50 * time.Millisecond)
		abroad := NewEvent(av, "abroad", func() { abroadAt = av.Now(); check(t, av, "at a deadline from abroad") })
		defer abroad.Stop()
		abroad.At(av.Now().Add(70 * time.Millisecond).In(time.FixedZone("abroad", 7200)))
		for i := 0; i < 10; i++ {
			av.Sleep(11 * time.Millisecond)
			check(t, av, "after an unregistered sleep")
		}
		if want := av.Now().Add(-60 * time.Millisecond); fired != want {
			t.Fatalf("event saw Now() = %v at its deadline, want %v", fired, want)
		}
		if want := av.Now().Add(-40 * time.Millisecond); abroadAt != want {
			t.Fatalf("event saw Now() = %v at a deadline from abroad, want %v", abroadAt, want)
		}
		wellFormed(t, av)
	})
	t.Run("auto", func(t *testing.T) {
		av := NewAutoVirtual()
		check(t, av, "at start")
		var fired time.Time
		ev := NewEvent(av, "probe", func() { fired = av.Now(); check(t, av, "inside an event") })
		defer ev.Stop()
		h := Register(av, "jumper")
		defer h.Close()
		for i := 0; i < 5; i++ {
			av.Sleep(time.Duration(i+1) * time.Hour)
			check(t, av, "after a sleep jump")
		}
		ev.After(50 * time.Millisecond)
		abroad := NewEvent(av, "abroad", func() { check(t, av, "at a deadline from another location") })
		abroad.At(av.Now().Add(70 * time.Millisecond).In(time.FixedZone("abroad", 7200)))
		av.Sleep(70 * time.Millisecond)
		check(t, av, "after a deadline from another location")
		if want := av.Now().Add(-20 * time.Millisecond); fired != want {
			t.Errorf("event saw Now() = %v at its deadline, want %v", fired, want)
		}
		if got := av.Now().Sub(SimEpoch); got < 15*time.Hour {
			t.Fatalf("clock advanced %v, want at least the 15h slept", got)
		}
		wellFormed(t, av)
	})
}
