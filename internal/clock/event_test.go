package clock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

// TestSleepAllocatesNothing: a Sleep that fires its own deadline allocates
// nothing; the caller's deadline lives in the clock.
func TestSleepAllocatesNothing(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "meter")
	defer h.Close()
	if n := testing.AllocsPerRun(200, func() { av.Sleep(time.Millisecond) }); n != 0 {
		t.Errorf("Sleep allocates %v times per call, want 0", n)
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestSameInstantWaitKindsFireInNameOrder: deadlines armed through Sleep,
// After and At all enter the heap keyed by (deadline, name, per-name
// sequence), and Every's repeats by ("", clock-global sequence). The caller
// registered as "node-b" sleeps, two events alternating After and At, armed
// in the reverse of name order, name "node-a" and "node-c", and a period
// named "tick" collide at every instant. At the first the period's deadline
// ties under its name, last; from the second its repeats run first. The
// rest run in name order, the caller's Sleep returning between node-a and
// node-c, run after run.
func TestSameInstantWaitKindsFireInNameOrder(t *testing.T) {
	const rounds = 6
	const step = 10 * time.Millisecond
	run := func() []string {
		av := NewAutoVirtual()
		h := Register(av, "node-b")
		defer h.Close()
		var log []string
		note := func(name string) {
			log = append(log, fmt.Sprintf("%s@%dms", name, av.Now().Sub(SimEpoch).Milliseconds()))
		}
		rearm := func(name string, phase int) {
			var ev *Event
			fired := 0
			ev = NewEvent(av, name, func() {
				note(name)
				if fired++; fired == rounds {
					return
				}
				if (fired+phase)%2 == 0 {
					ev.After(step)
				} else {
					ev.At(av.Now().Add(step))
				}
			})
			ev.After(step)
		}
		rearm("node-c", 1)
		rearm("node-a", 0)
		tick := NewEvent(av, "tick", func() { note("tick") })
		tick.Every(step)
		for r := 0; r < rounds; r++ {
			av.Sleep(step)
			note("node-b")
		}
		tick.Stop()
		av.Sleep(time.Millisecond) // node-c's last run, at the last instant
		if got := av.PendingWaiters(); got != 0 {
			t.Fatalf("PendingWaiters = %d, want 0", got)
		}
		return log
	}
	want := []string{"node-a@10ms", "node-b@10ms", "node-c@10ms", "tick@10ms"}
	for r := 2; r <= rounds; r++ {
		for _, name := range []string{"tick", "node-a", "node-b", "node-c"} {
			want = append(want, fmt.Sprintf("%s@%dms", name, 10*r))
		}
	}
	for i := 0; i < 3; i++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d woke in the wrong order:\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestStoppedWaitersLeaveTheHeap: Stop removes the deadline at once, so a
// stopped event, one-shot or periodic, never fires, and stopping twice is
// harmless.
func TestStoppedWaitersLeaveTheHeap(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "solo")
	defer h.Close()
	runs := 0
	once := NewEvent(av, "once", func() { runs++ })
	once.After(time.Hour)
	ticker := NewEvent(av, "ticker", func() { runs++ })
	ticker.Every(time.Hour)
	if got := av.PendingWaiters(); got != 2 {
		t.Fatalf("PendingWaiters = %d, want 2", got)
	}
	once.Stop()
	ticker.Stop()
	once.Stop()
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after Stop, want 0", got)
	}
	av.Sleep(3 * time.Hour)
	if runs != 0 {
		t.Fatal("stopped one-shot or periodic event fired")
	}
}

// TestRingFIFO covers the run queue's and a Loop's buffer: FIFO across
// growth and wrap-around.
func TestRingFIFO(t *testing.T) {
	var r ring[int]
	next, want := 0, 0
	for _, burst := range []int{3, 1, 7, 20, 63, 2} { // grows 4 → 64 slots, head mid-buffer
		for i := 0; i < burst; i++ {
			r.push(next)
			next++
		}
		drain := burst
		if burst == 3 {
			drain = 2 // leave one behind so head and tail stay apart
		}
		for i := 0; i < drain; i++ {
			if v := r.pop(); v != want {
				t.Fatalf("popped %d, want %d", v, want)
			}
			want++
		}
	}
	if v := r.pop(); v != want || want != next-1 || r.len() != 0 {
		t.Fatalf("last value = %d, want the one left behind, %d, and an empty ring", v, next-1)
	}
	if len(r.buf) != 64 {
		t.Fatalf("the ring grew to %d slots, want 64", len(r.buf))
	}
}

// TestEventFiresWhereItsCallersSleepWould: an event's deadline is keyed
// like a sleep of a caller registered under the event's name. "node-b"
// keeps one deadline 10ms ahead, once as the caller sleeping each round and
// once as an event re-arming itself while an unregistered caller sleeps,
// between two events whose deadlines collide with it at every instant; both
// runs must log the same order, a, b, c.
func TestEventFiresWhereItsCallersSleepWould(t *testing.T) {
	const rounds = 5
	run := func(asEvent bool) []string {
		av := NewAutoVirtual()
		var log []string
		note := func(name string) {
			log = append(log, fmt.Sprintf("%s@%dms", name, av.Now().Sub(SimEpoch).Milliseconds()))
		}
		stepper := func(name string) {
			var ev *Event
			fired := 0
			ev = NewEvent(av, name, func() {
				note(name)
				if fired++; fired < rounds {
					ev.After(10 * time.Millisecond)
				}
			})
			ev.After(10 * time.Millisecond)
		}
		stepper("node-a")
		stepper("node-c")
		if asEvent {
			stepper("node-b")
			av.Sleep(rounds*10*time.Millisecond + time.Millisecond)
		} else {
			h := Register(av, "node-b")
			for r := 0; r < rounds; r++ {
				av.Sleep(10 * time.Millisecond)
				note("node-b")
			}
			h.Close()
			av.Sleep(time.Millisecond) // node-c's last run, at the last instant
		}
		if got := av.PendingWaiters(); got != 0 {
			t.Fatalf("PendingWaiters = %d, want 0", got)
		}
		return log
	}
	var want []string
	for r := 1; r <= rounds; r++ {
		for _, name := range []string{"node-a", "node-b", "node-c"} {
			want = append(want, fmt.Sprintf("%s@%dms", name, 10*r))
		}
	}
	for _, asEvent := range []bool{false, true} {
		if got := run(asEvent); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("asEvent=%v fired in the wrong order:\n got %v\nwant %v", asEvent, got, want)
		}
	}
}

// TestEventTriggerQueuesOnceBehindQueuedEvents: Trigger takes one place at
// the tail of the run queue however often it is called before the run, so
// events queued first run first; a Trigger from inside fn queues the next
// run behind whatever fn queued. Nothing runs before the caller sleeps.
func TestEventTriggerQueuesOnceBehindQueuedEvents(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "main")
	defer h.Close()
	var log []string
	logger := func(name string) *Event {
		return NewEvent(av, name, func() { log = append(log, name) })
	}
	a, b, late := logger("a"), logger("b"), logger("late")
	runs := 0
	var ev *Event
	ev = NewEvent(av, "ev", func() {
		runs++
		log = append(log, fmt.Sprintf("ev run %d", runs))
		if runs == 1 {
			late.Trigger() // queues "late" before the re-trigger does
			ev.Trigger()
		}
	})
	a.Trigger()
	b.Trigger()
	ev.Trigger()
	ev.Trigger()
	ev.Trigger()
	log = append(log, "main sleeps")
	before := av.KernelStats().Events
	av.Sleep(time.Millisecond)
	want := "[main sleeps a b ev run 1 late ev run 2]"
	if fmt.Sprint(log) != want {
		t.Fatalf("order:\n got %v\nwant %s", log, want)
	}
	if got := av.KernelStats().Events - before; got != 5 {
		t.Fatalf("KernelStats.Events grew by %d, want 5: a, b, late and two runs of ev", got)
	}
}

// TestEventMayNotSleep: fn runs inside its caller's Sleep and has nothing
// to wait on, so its Sleep panics naming the event, however the run came
// about: a Trigger, a deadline, a period, a Loop's message or its tick. A
// zero Sleep returns.
func TestEventMayNotSleep(t *testing.T) {
	const name = "net/shard-7"
	park := func(av *AutoVirtual) func() {
		return func() {
			av.Sleep(0)
			av.Sleep(time.Millisecond)
		}
	}
	for _, tc := range []struct {
		how   string
		start func(av *AutoVirtual)
	}{
		{"trigger", func(av *AutoVirtual) { NewEvent(av, name, park(av)).Trigger() }},
		{"deadline", func(av *AutoVirtual) { NewEvent(av, name, park(av)).After(time.Millisecond) }},
		{"period", func(av *AutoVirtual) { NewEvent(av, name, park(av)).Every(time.Millisecond) }},
		{"loop message", func(av *AutoVirtual) {
			NewLoop(av, name, func(int) { park(av)() }, func() {}).Post(1)
		}},
		{"loop tick", func(av *AutoVirtual) {
			NewLoop(av, name, func(int) {}, park(av)).Every(time.Millisecond)
		}},
	} {
		t.Run(tc.how, func(t *testing.T) {
			av := NewAutoVirtual()
			h := Register(av, "main")
			_ = h // the clock is unusable after the panic; nothing to close
			tc.start(av)
			// main's Sleep runs the event, and so receives the panic.
			mustPanic(t, "event "+name+" would park", func() { av.Sleep(time.Second) })
		})
	}
}

// TestEventStop: Stop of an armed event removes its deadline at once, Stop
// of a queued one drops the run, and both leave the event inert.
func TestEventStop(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "main")
	defer h.Close()
	runs := 0
	armed := NewEvent(av, "armed", func() { runs++ })
	armed.After(time.Hour)
	if got := av.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters = %d with one armed event, want 1", got)
	}
	armed.Stop()
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after Stop, want 0", got)
	}
	queued := NewEvent(av, "queued", func() { runs++ })
	queued.Trigger()
	queued.Stop()
	for _, ev := range []*Event{armed, queued} {
		ev.After(time.Millisecond)
		ev.At(av.Now().Add(time.Millisecond))
		ev.Trigger()
	}
	av.Sleep(time.Second) // everything that could run has its turn
	if runs != 0 {
		t.Fatalf("stopped events ran %d times", runs)
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestEventAllocations: arming, firing, triggering and running an event,
// repeating a period and posting to a loop allocate nothing.
func TestEventAllocations(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "meter")
	defer h.Close()
	runs := 0
	ev := NewEvent(av, "ev", func() { runs++ })
	if n := testing.AllocsPerRun(200, func() {
		ev.After(time.Millisecond)
		av.Sleep(time.Millisecond)
	}); n != 0 {
		t.Errorf("After + fire allocates %v times per round, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		ev.Trigger()
		av.Sleep(time.Microsecond)
	}); n != 0 {
		t.Errorf("Trigger + run allocates %v times per round, want 0", n)
	}
	if runs != 2*201 {
		t.Fatalf("event ran %d times, want %d", runs, 2*201)
	}
	ev.Stop()
	ev = NewEvent(av, "period", func() { runs++ })
	ev.Every(time.Millisecond)
	if n := testing.AllocsPerRun(200, func() { av.Sleep(time.Millisecond) }); n != 0 {
		t.Errorf("a period's fire and re-arm allocate %v times, want 0", n)
	}
	ev.Stop()
	got := 0
	loop := NewLoop(av, "loop", func(m int) { got += m }, func() {})
	loop.Post(1)
	av.Sleep(time.Microsecond) // the inbox grows once
	if n := testing.AllocsPerRun(200, func() {
		loop.Post(1000)
		av.Sleep(time.Microsecond)
	}); n != 0 {
		t.Errorf("Post + run allocates %v times per message, want 0", n)
	}
	if got != 1+201*1000 {
		t.Fatalf("loop handled %d, want every message once", got)
	}
	loop.Stop()
}

// TestEventDeadlinesOfAnUnregisteredCaller: events armed and triggered by
// an unregistered caller run at their deadlines, in deadline order, while
// its sleep moves the clock; At replaces an earlier After; a Trigger only
// queues the run for the next Sleep, and one made from inside fn repeats
// the run instead of recursing; a stopped event leaves the heap and never
// runs.
func TestEventDeadlinesOfAnUnregisteredCaller(t *testing.T) {
	v := NewAutoVirtual()
	var log []string
	note := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%v", name, v.Now().Sub(SimEpoch))) }
	}
	late, early := NewEvent(v, "late", note("late")), NewEvent(v, "early", note("early"))
	late.After(3 * time.Second)
	early.After(time.Second)
	moved := NewEvent(v, "moved", note("moved"))
	moved.After(time.Second)
	moved.At(SimEpoch.Add(2 * time.Second)) // replaces the 1s deadline
	left := 3
	var again *Event
	again = NewEvent(v, "again", func() {
		note("again")()
		if left--; left > 0 {
			again.Trigger()
		}
	})
	again.Trigger()
	if len(log) != 0 {
		t.Fatalf("after Trigger: %v, want nothing run before a Sleep", log)
	}
	v.Sleep(5 * time.Second)
	want := "[again@0s again@0s again@0s early@1s moved@2s late@3s]"
	if fmt.Sprint(log) != want {
		t.Fatalf("order:\n got %v\nwant %s", log, want)
	}
	late.After(time.Second)
	late.Stop()
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after Stop, want 0", got)
	}
	v.Sleep(time.Minute)
	if fmt.Sprint(log) != want {
		t.Fatalf("a stopped event ran: %v", log)
	}
}

// TestStopInsideARun: Stop called from a running event takes effect at
// once. An event that re-arms and re-triggers itself and then stops runs
// no more; a peer queued behind the stopper loses its turn (and is not
// counted as run); a peer due at the stopper's instant loses its deadline;
// a period stopped from its own tick stops repeating.
func TestStopInsideARun(t *testing.T) {
	t.Run("itself", func(t *testing.T) {
		av := NewAutoVirtual()
		runs := 0
		var ev *Event
		ev = NewEvent(av, "self", func() {
			runs++
			ev.After(time.Millisecond)
			ev.Trigger()
			ev.Stop()
		})
		ev.Trigger()
		av.Sleep(time.Second)
		if runs != 1 || av.PendingWaiters() != 0 {
			t.Fatalf("ran %d times with %d waiters left, want once and none", runs, av.PendingWaiters())
		}
	})
	t.Run("a queued peer", func(t *testing.T) {
		av := NewAutoVirtual()
		var log []string
		b := NewEvent(av, "b", func() { log = append(log, "b") })
		a := NewEvent(av, "a", func() { log = append(log, "a"); b.Stop() })
		a.Trigger()
		b.Trigger()
		before := av.KernelStats().Events
		av.Sleep(time.Second)
		if fmt.Sprint(log) != "[a]" {
			t.Fatalf("ran %v, want only a", log)
		}
		if got := av.KernelStats().Events - before; got != 1 {
			t.Fatalf("KernelStats.Events grew by %d, want 1: the dropped turn is not a run", got)
		}
	})
	t.Run("a peer due at the same instant", func(t *testing.T) {
		av := NewAutoVirtual()
		var log []string
		at := SimEpoch.Add(time.Second)
		b := NewEvent(av, "b", func() { log = append(log, "b") })
		a := NewEvent(av, "a", func() {
			log = append(log, "a")
			if got := av.PendingWaiters(); got != 2 {
				t.Errorf("PendingWaiters = %d inside a, want 2: b's deadline and the caller's", got)
			}
			b.Stop()
		})
		b.At(at)
		a.At(at)
		av.Sleep(2 * time.Second)
		if fmt.Sprint(log) != "[a]" || av.PendingWaiters() != 0 {
			t.Fatalf("ran %v with %d waiters left, want only a and none", log, av.PendingWaiters())
		}
	})
	t.Run("a period from its own tick", func(t *testing.T) {
		av := NewAutoVirtual()
		var at []time.Duration
		var tick *Event
		tick = NewEvent(av, "tick", func() {
			at = append(at, av.Now().Sub(SimEpoch))
			if len(at) == 3 {
				tick.Stop()
			}
		})
		tick.Every(time.Second)
		av.Sleep(10 * time.Second)
		if fmt.Sprint(at) != "[1s 2s 3s]" || av.PendingWaiters() != 0 {
			t.Fatalf("ticked at %v with %d waiters left, want 1s 2s 3s and none", at, av.PendingWaiters())
		}
	})
}
