package clock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// runActors forks one actor per name, in map order (deliberately unstable),
// and returns when all have closed.
func runActors(av *AutoVirtual, bodies map[string]func()) {
	var wg sync.WaitGroup
	Fork(av, len(bodies))
	for name, body := range bodies {
		wg.Add(1)
		go func(name string, body func()) {
			defer wg.Done()
			h := RegisterForked(av, name)
			defer h.Close()
			body()
		}(name, body)
	}
	wg.Wait()
}

// wave forks one actor per name from the calling actor, released in name
// order, and returns a join that parks the caller until each has finished:
// every actor reports its end through a mailbox the join awaits.
func wave(av *AutoVirtual, names []string, fn func(i int)) (join func()) {
	done := NewMailbox[int](av, len(names))
	Fork(av, len(names))
	for i, name := range names {
		go func() {
			h := RegisterForked(av, name)
			defer h.Close()
			fn(i)
			done.Send(i, nil)
		}()
	}
	return func() {
		for range names {
			Await(av, done)
		}
	}
}

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

// TestCallerIsTokenHolder: inside a run the parking primitives act for the
// token holder — a registered actor's Sleep parks that actor and registers
// nobody else.
func TestCallerIsTokenHolder(t *testing.T) {
	av := NewAutoVirtual()
	var during []string
	runActors(av, map[string]func(){
		"napper": func() { av.Sleep(2 * time.Second) },
		"census": func() {
			av.Sleep(time.Second) // napper is parked in its own Sleep now
			av.mu.Lock()
			for a := range av.actors {
				during = append(during, a.name)
			}
			av.mu.Unlock()
		},
	})
	if len(during) != 2 {
		t.Fatalf("actors registered while napper slept = %v, want only napper and census", during)
	}
	if got := av.Now().Sub(SimEpoch); got != 2*time.Second {
		t.Fatalf("run ended at +%v, want +2s", got)
	}
}

// TestNoTokenOut pins what each primitive does when called from outside the
// run: nobody holds the token, so the caller cannot be an actor.
func TestNoTokenOut(t *testing.T) {
	t.Run("Sleep registers a transient actor", func(t *testing.T) {
		av := NewAutoVirtual()
		av.Sleep(time.Hour)
		if got := av.Now().Sub(SimEpoch); got != time.Hour {
			t.Fatalf("slept %v, want 1h", got)
		}
		av.mu.Lock()
		left := len(av.actors)
		av.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d actors still registered after the sleep", left)
		}
	})
	t.Run("Await registers a transient actor", func(t *testing.T) {
		av := NewAutoVirtual()
		m := NewMailbox[int](av, 1)
		NewEvent(av, "sender", func() { m.Send(7, nil) }).After(time.Second)
		if idx, v, ok := Await(av, m); idx != 0 || !ok || v != 7 {
			t.Fatalf("Await = (%d, %v, ok=%v), want the 7 sent at +1s", idx, v, ok)
		}
		if got := av.Now().Sub(SimEpoch); got != time.Second {
			t.Fatalf("Await returned at +%v, want the send's +1s", got)
		}
		m.Send(8, nil)
		if idx, v, ok := Await(av, m); idx != 0 || !ok || v != 8 {
			t.Fatalf("Await = (%d, %v, ok=%v), want the buffered 8", idx, v, ok)
		}
		av.mu.Lock()
		left := len(av.actors)
		av.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d actors still registered after the awaits", left)
		}
	})
	t.Run("Send to a full mailbox panics", func(t *testing.T) {
		av := NewAutoVirtual()
		m := NewMailbox[int](av, 1)
		m.Send(1, nil)
		mustPanic(t, "Mailbox.Send to a full mailbox", func() { m.Send(2, nil) })
	})
	t.Run("Close checks the handle against the holder", func(t *testing.T) {
		av := NewAutoVirtual()
		av.SetDeadlockHandler(func(string) {})
		parked := make(chan Handle, 1)
		never := NewMailbox[int](av, 1)
		go func() {
			h := Register(av, "parked")
			parked <- h
			Await(av, never) // releases the token for good
		}()
		h := <-parked
		for { // wait until the actor has parked and the clock went idle
			av.mu.Lock()
			idle := av.current == nil
			av.mu.Unlock()
			if idle {
				break
			}
			time.Sleep(time.Millisecond)
		}
		mustPanic(t, "closed without holding the execution token", h.Close)
	})
}

// TestKernelAllocationCeilings pins the allocation cost of the parking
// primitives: the scheduler itself allocates nothing per park; the one
// allocation of a mailbox hand-off is the element's box into Await's any.
func TestKernelAllocationCeilings(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "meter")
	defer h.Close()

	if n := testing.AllocsPerRun(200, func() { av.Sleep(time.Millisecond) }); n != 0 {
		t.Errorf("Sleep allocates %v times per call, want 0", n)
	}

	// Two hand-offs per round: meter → echo → meter. The payload is large
	// enough that boxing it cannot use the runtime's small-integer table.
	// A negative payload ends the echo.
	ping, pong := NewMailbox[int](av, 1), NewMailbox[int](av, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	Fork(av, 1)
	go func() {
		defer wg.Done()
		h := RegisterForked(av, "echo")
		defer h.Close()
		for {
			_, v, _ := Await(av, ping)
			if v.(int) < 0 {
				return
			}
			pong.Send(v.(int)+1, nil)
		}
	}()
	round := func() {
		ping.Send(1000, nil)
		if _, v, _ := Await(av, pong); v.(int) != 1001 {
			t.Fatalf("echo returned %v", v)
		}
	}
	round()
	if n := testing.AllocsPerRun(200, round); n > 2 {
		t.Errorf("mailbox round trip allocates %v times, want at most 2 (one box per hand-off)", n)
	}
	ping.Send(-1, nil)
	av.Sleep(time.Millisecond) // park so echo can take the end and leave
	wg.Wait()
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestSameInstantWaitKindsFireInNameOrder: deadlines armed through Sleep,
// After and At all enter the heap keyed by (deadline, name, per-name
// sequence). An actor sleeping and two events alternating After and At,
// armed in the reverse of name order, collide at every instant; they must
// wake in name order at each one, run after run.
func TestSameInstantWaitKindsFireInNameOrder(t *testing.T) {
	const rounds = 6
	const step = 10 * time.Millisecond
	run := func() []string {
		av := NewAutoVirtual()
		var log []string // appended under the execution token
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
		rearm("node-b", 1)
		rearm("node-a", 0)
		runActors(av, map[string]func(){
			"node-c": func() {
				for r := 0; r < rounds; r++ {
					av.Sleep(step)
					note("node-c")
				}
			},
		})
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

// TestMailboxRing covers the auto-virtual buffer: FIFO across growth and
// wrap-around, and a Send at capacity panicking.
func TestMailboxRing(t *testing.T) {
	t.Run("FIFO across growth and wrap", func(t *testing.T) {
		av := NewAutoVirtual()
		h := Register(av, "solo")
		defer h.Close()
		m := NewMailbox[int](av, 64)
		next, want := 0, 0
		for _, burst := range []int{3, 1, 7, 20, 63, 2} { // grows 4 → 64 slots, head mid-buffer
			for i := 0; i < burst; i++ {
				m.Send(next, nil)
				next++
			}
			drain := burst
			if burst == 3 {
				drain = 2 // leave one behind so head and tail stay apart
			}
			for i := 0; i < drain; i++ {
				_, v, ok := Await(av, m)
				if !ok || v.(int) != want {
					t.Fatalf("received %v (ok=%v), want %d", v, ok, want)
				}
				want++
			}
		}
		if _, v, _ := Await(av, m); v.(int) != want || want != next-1 {
			t.Fatalf("last value = %v, want the one left behind, %d", v, next-1)
		}
	})
	t.Run("the ring never outgrows the capacity", func(t *testing.T) {
		av := NewAutoVirtual()
		m := NewMailbox[int](av, 5)
		for i := 0; i < 5; i++ {
			m.Send(i, nil)
		}
		mustPanic(t, "full mailbox of 5", func() { m.Send(5, nil) })
		if m.q.len() != 5 {
			t.Fatalf("the ring holds %d, want 5", m.q.len())
		}
	})
}

// TestSharedMailboxWakesInAttachOrder: several actors parked on one mailbox
// are all woken by a send and the first in attach order takes the value;
// the rest find nothing and stay parked (the scheduler settles that without
// running them). The hand-out order must be the plain wake-all order.
func TestSharedMailboxWakesInAttachOrder(t *testing.T) {
	av := NewAutoVirtual()
	m := NewMailbox[int](av, 1)
	var log []string // appended under the execution token
	worker := func(name string, work time.Duration) func() {
		return func() {
			for {
				_, v, _ := Await(av, m)
				if v.(int) < 0 {
					log = append(log, name+" stopped")
					return
				}
				log = append(log, fmt.Sprintf("%s got %d", name, v))
				av.Sleep(work)
			}
		}
	}
	runActors(av, map[string]func(){
		"w1": worker("w1", 5*time.Millisecond), // busy across two sends
		"w2": worker("w2", time.Millisecond),
		"w3": worker("w3", time.Millisecond),
		"producer": func() {
			for i := 0; i < 6; i++ {
				av.Sleep(2 * time.Millisecond)
				m.Send(i, nil)
			}
			av.Sleep(10 * time.Millisecond)
			for range 3 { // one end per worker, to whoever waits longest
				m.Send(-1, nil)
				av.Sleep(time.Millisecond)
			}
		},
	})
	// The order the wake-everyone-and-run kernel of PR 12 gives.
	want := "[w1 got 0 w2 got 1 w3 got 2 w2 got 3 w1 got 4 w3 got 5 w2 stopped w3 stopped w1 stopped]"
	if fmt.Sprint(log) != want {
		t.Fatalf("hand-out order:\n got %v\nwant %s", log, want)
	}
}

// TestEventFiresWhereItsActorsTimerWould: an event's deadline is keyed like
// a sleep of an actor with the event's name. "node-b" keeps one deadline
// 10ms ahead, once as an actor sleeping each round and once as an event
// re-arming itself, between two actors whose sleeps collide with it at every
// instant; both runs must log the same order, a, b, c.
func TestEventFiresWhereItsActorsTimerWould(t *testing.T) {
	const rounds = 5
	run := func(asEvent bool) []string {
		av := NewAutoVirtual()
		var log []string // appended under the execution token
		note := func(name string) {
			log = append(log, fmt.Sprintf("%s@%dms", name, av.Now().Sub(SimEpoch).Milliseconds()))
		}
		sleeper := func(name string) func() {
			return func() {
				for r := 0; r < rounds; r++ {
					av.Sleep(10 * time.Millisecond)
					note(name)
				}
			}
		}
		bodies := map[string]func(){"node-a": sleeper("node-a"), "node-c": sleeper("node-c")}
		var ev *Event
		if asEvent {
			fired := 0
			ev = NewEvent(av, "node-b", func() {
				note("node-b")
				if fired++; fired < rounds {
					ev.After(10 * time.Millisecond)
				}
			})
			ev.After(10 * time.Millisecond)
		} else {
			bodies["node-b"] = sleeper("node-b")
		}
		runActors(av, bodies)
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

// TestEventTriggerQueuesOnceBehindReadyActors: Trigger takes one place at
// the tail of the run queue however often it is called before the run, so
// actors that were ready first run first; a Trigger from inside fn queues
// the next run behind whatever fn woke.
func TestEventTriggerQueuesOnceBehindReadyActors(t *testing.T) {
	av := NewAutoVirtual()
	var log []string // appended under the execution token
	ma, mb, late := NewMailbox[int](av, 1), NewMailbox[int](av, 1), NewMailbox[int](av, 1)
	runs := 0
	var ev *Event
	ev = NewEvent(av, "ev", func() {
		runs++
		log = append(log, fmt.Sprintf("ev run %d", runs))
		if runs == 1 {
			late.Send(1, nil) // wakes "late" before the re-trigger queues
			ev.Trigger()
		}
	})
	waiter := func(name string, m *Mailbox[int]) func() {
		return func() {
			Await(av, m)
			log = append(log, name)
		}
	}
	runActors(av, map[string]func(){
		"a":    waiter("a", ma),
		"b":    waiter("b", mb),
		"late": waiter("late", late),
		"z-main": func() {
			av.Sleep(time.Millisecond) // a, b and late are parked on their mailboxes now
			ma.Send(1, nil)
			mb.Send(1, nil)
			ev.Trigger()
			ev.Trigger()
			ev.Trigger()
			log = append(log, "main parks")
		},
	})
	want := "[main parks a b ev run 1 late ev run 2]"
	if fmt.Sprint(log) != want {
		t.Fatalf("order:\n got %v\nwant %s", log, want)
	}
	if ks := av.KernelStats(); ks.Events != 2 {
		t.Fatalf("KernelStats.Events = %d, want 2", ks.Events)
	}
}

// TestEventMayNotPark: fn holds the token but has no goroutine to block, so
// every primitive that would park it panics naming the event; Await works
// when it need not park.
func TestEventMayNotPark(t *testing.T) {
	for name, park := range map[string]func(av *AutoVirtual){
		"Sleep": func(av *AutoVirtual) { av.Sleep(time.Millisecond) },
		"Await empty": func(av *AutoVirtual) {
			m := NewMailbox[int](av, 1)
			m.Send(1, nil)
			if _, v, _ := Await(av, m); v.(int) != 1 { // ready: fine
				panic("ready Await did not consume")
			}
			Await(av, m) // empty: would park
		},
	} {
		t.Run(name, func(t *testing.T) {
			av := NewAutoVirtual()
			h := Register(av, "main")
			ev := NewEvent(av, "net/shard-7", func() { park(av) })
			ev.Trigger()
			// main parks, schedules the event on its own goroutine, and so
			// receives the panic.
			mustPanic(t, "event net/shard-7 would park", func() { av.Sleep(time.Second) })
			_ = h // the clock is unusable after the panic; nothing to close
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

// TestEventDeadlinesFromOutsideTheRun: events armed and triggered with no
// token out run at their deadlines, in deadline order, while a sleep from
// outside moves the clock; At replaces an earlier After; a Trigger with no
// token out runs before it returns, and one made from inside fn repeats the
// run instead of recursing; a stopped event leaves the heap and never runs.
func TestEventDeadlinesFromOutsideTheRun(t *testing.T) {
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
	if want := "[again@0s again@0s again@0s]"; fmt.Sprint(log) != want {
		t.Fatalf("after Trigger: %v, want %s", log, want)
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
