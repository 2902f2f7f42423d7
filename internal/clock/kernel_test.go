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
		never := NewGate(av)
		timer := av.NewTimerAt(av.Now().Add(time.Second))
		if idx, _, ok := Await(av, never, timer); idx != 1 || !ok {
			t.Fatalf("Await = (%d, ok=%v), want the timer at index 1", idx, ok)
		}
		if got := av.Now().Sub(SimEpoch); got != time.Second {
			t.Fatalf("Await returned at +%v, want the timer's +1s", got)
		}
		never.Close()
		if idx, _, ok := Await(av, never); idx != 0 || ok {
			t.Fatalf("Await = (%d, ok=%v), want the closed gate", idx, ok)
		}
		m := NewMailbox[int](av, 1)
		m.TrySend(7)
		if idx, v, ok := Await(av, never, m); idx != 0 || ok || v != nil {
			t.Fatalf("Await = (%d, %v, ok=%v), want the closed gate ahead of the mailbox", idx, v, ok)
		}
		if idx, v, ok := Await(av, m); idx != 0 || !ok || v != 7 {
			t.Fatalf("Await = (%d, %v, ok=%v), want the buffered 7", idx, v, ok)
		}
		av.mu.Lock()
		left := len(av.actors)
		av.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d actors still registered after the awaits", left)
		}
	})
	t.Run("Send panics", func(t *testing.T) {
		av := NewAutoVirtual()
		m := NewMailbox[int](av, 1)
		mustPanic(t, "Mailbox.Send from a goroutine not registered", func() { m.Send(1, nil) })
	})
	t.Run("Close checks the handle against the holder", func(t *testing.T) {
		av := NewAutoVirtual()
		av.SetDeadlockHandler(func(string) {})
		parked := make(chan Handle, 1)
		never := NewGate(av)
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

	ticker := av.NewTicker(time.Millisecond)
	Await(av, ticker)
	if n := testing.AllocsPerRun(200, func() { Await(av, ticker) }); n != 0 {
		t.Errorf("Await on a ticker allocates %v times per tick, want 0", n)
	}
	ticker.Stop()

	// Two hand-offs per round: meter → echo → meter. The payload is large
	// enough that boxing it cannot use the runtime's small-integer table.
	ping, pong := NewMailbox[int](av, 1), NewMailbox[int](av, 1)
	stop := NewGate(av)
	var wg sync.WaitGroup
	wg.Add(1)
	Fork(av, 1)
	go func() {
		defer wg.Done()
		h := RegisterForked(av, "echo")
		defer h.Close()
		for {
			idx, v, _ := Await(av, stop, ping)
			if idx == 0 {
				return
			}
			pong.Send(v.(int)+1, stop)
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
	stop.Close()
	av.Sleep(time.Millisecond) // park so echo can observe the stop and leave
	wg.Wait()
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestSameInstantWaitKindsFireInNameOrder: deadlines armed through Sleep,
// NewTimerAt and NewTicker all enter the heap keyed by
// (deadline, actor name, per-actor sequence). Three actors whose waits
// collide at every instant, each mixing the three kinds, must therefore wake
// in name order at each instant — the order the one-waiter-per-arm kernel
// produced.
func TestSameInstantWaitKindsFireInNameOrder(t *testing.T) {
	const rounds = 6
	run := func() []string {
		av := NewAutoVirtual()
		var log []string // appended under the execution token
		body := func(name string, phase int) func() {
			return func() {
				var ticker Ticker
				for r := 0; r < rounds; r++ {
					switch (r + phase) % 3 {
					case 0:
						av.Sleep(10 * time.Millisecond)
					case 1:
						Await(av, av.NewTimerAt(av.Now().Add(10*time.Millisecond)))
					case 2:
						if ticker == nil {
							ticker = av.NewTicker(10 * time.Millisecond)
						}
						Await(av, ticker)
						ticker.Stop()
						ticker = nil
					}
					log = append(log, fmt.Sprintf("%s@%dms", name, av.Now().Sub(SimEpoch).Milliseconds()))
				}
			}
		}
		runActors(av, map[string]func(){
			"node-c": body("node-c", 0),
			"node-a": body("node-a", 1),
			"node-b": body("node-b", 2),
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

// TestRearmTakesAFreshTieKey: every arm takes the actor's next sequence
// number, so between two of one actor's timers due at the same instant the
// one armed last fires last — also when its deadline was first armed before
// the other's, then stopped and armed anew.
func TestRearmTakesAFreshTieKey(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "solo")
	defer h.Close()
	at := av.Now().Add(time.Second)
	first := av.NewTimerAt(at)
	second := av.NewTimerAt(at)
	first.Stop()
	first = av.NewTimerAt(at) // same deadline, armed after second
	if idx, _, _ := Await(av, first, second); idx != 1 {
		t.Fatalf("the re-armed timer fired before the one armed earlier (index %d)", idx)
	}
	if idx, _, _ := Await(av, first, second); idx != 0 {
		t.Fatalf("the re-armed timer did not fire second (index %d)", idx)
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestStoppedWaitersLeaveTheHeap: Stop removes the deadline at once, so a
// stopped timer or ticker never fires, and stopping twice is harmless.
func TestStoppedWaitersLeaveTheHeap(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "solo")
	defer h.Close()
	timer := av.NewTimerAt(av.Now().Add(time.Hour))
	ticker := av.NewTicker(time.Hour)
	if got := av.PendingWaiters(); got != 2 {
		t.Fatalf("PendingWaiters = %d, want 2", got)
	}
	timer.Stop()
	ticker.Stop()
	timer.Stop()
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after Stop, want 0", got)
	}
	av.Sleep(3 * time.Hour)
	if hasFired(av, timer) || hasFired(av, ticker) {
		t.Fatal("stopped timer or ticker fired")
	}
}

// TestMailboxRing covers the auto-virtual buffer: FIFO across growth and
// wrap-around, TrySend refusing at capacity, Send parking at capacity until
// a receive makes room, and abort and Close releasing a parked sender.
func TestMailboxRing(t *testing.T) {
	t.Run("FIFO across growth and wrap", func(t *testing.T) {
		av := NewAutoVirtual()
		h := Register(av, "solo")
		defer h.Close()
		m := NewMailbox[int](av, 64)
		next, want := 0, 0
		for _, burst := range []int{3, 1, 7, 20, 63, 2} { // grows 4 → 64 slots, head mid-buffer
			for i := 0; i < burst; i++ {
				if !m.TrySend(next) {
					t.Fatalf("TrySend(%d) refused below capacity (len %d)", next, m.Len())
				}
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
		if m.Len() != 1 {
			t.Fatalf("Len = %d, want the one value left behind", m.Len())
		}
	})
	t.Run("the ring never outgrows the capacity", func(t *testing.T) {
		av := NewAutoVirtual()
		m := NewMailbox[int](av, 5)
		for i := 0; i < 5; i++ {
			if !m.TrySend(i) {
				t.Fatalf("TrySend(%d) refused below capacity", i)
			}
		}
		if m.TrySend(5) {
			t.Fatal("TrySend accepted a sixth value into a mailbox of five")
		}
		if m.Len() != 5 {
			t.Fatalf("Len = %d, want 5", m.Len())
		}
	})
	t.Run("Send parks at capacity", func(t *testing.T) {
		av := NewAutoVirtual()
		m := NewMailbox[int](av, 2)
		var log []string // appended under the execution token
		runActors(av, map[string]func(){
			"producer": func() {
				for i := 0; i < 4; i++ {
					m.Send(i, nil)
					log = append(log, fmt.Sprintf("sent %d@%v", i, av.Now().Sub(SimEpoch)))
				}
				m.Close()
			},
			"consumer": func() {
				for {
					av.Sleep(time.Second)
					_, v, ok := Await(av, m)
					if !ok {
						return
					}
					log = append(log, fmt.Sprintf("got %d", v))
				}
			},
		})
		want := "[sent 0@0s sent 1@0s got 0 sent 2@1s got 1 sent 3@2s got 2 got 3]"
		if fmt.Sprint(log) != want {
			t.Fatalf("hand-off order:\n got %v\nwant %s", log, want)
		}
	})
	for _, release := range []string{"abort", "Close"} {
		t.Run(release+" releases a parked Send", func(t *testing.T) {
			av := NewAutoVirtual()
			m := NewMailbox[int](av, 1)
			abort := NewGate(av)
			var sent []bool
			runActors(av, map[string]func(){
				"producer": func() {
					sent = append(sent, m.Send(1, abort), m.Send(2, abort), m.Send(3, abort))
				},
				"releaser": func() {
					av.Sleep(time.Second)
					if release == "abort" {
						abort.Close()
					} else {
						m.Close()
					}
				},
			})
			if fmt.Sprint(sent) != "[true false false]" {
				t.Fatalf("Send results = %v, want [true false false]", sent)
			}
			h := Register(av, "drain")
			defer h.Close()
			if _, v, ok := Await(av, m); !ok || v.(int) != 1 {
				t.Fatalf("buffered value = %v (ok=%v), want 1", v, ok)
			}
			if release == "Close" {
				if _, _, ok := Await(av, m); ok {
					t.Fatal("a closed, drained mailbox still reports ok")
				}
			}
		})
	}
}

// TestSharedMailboxWakesInAttachOrder: several actors parked on one mailbox
// are all woken by a send and the first in attach order takes the value;
// the rest find nothing and stay parked (the scheduler settles that without
// running them). The hand-out order must be the plain wake-all order, for
// workers that await the mailbox and take the boxed value and for workers
// that each bind a Receiver: there the scheduler stores the element in the
// variable of the parked worker it consumed for, and in no sibling's.
func TestSharedMailboxWakesInAttachOrder(t *testing.T) {
	for _, typed := range []bool{false, true} {
		t.Run(fmt.Sprintf("typed=%v", typed), func(t *testing.T) {
			av := NewAutoVirtual()
			m := NewMailbox[int](av, 1)
			stop := NewGate(av)
			var log []string // appended under the execution token
			worker := func(name string, work time.Duration) func() {
				return func() {
					got := -1
					var src Waitable = m
					if typed {
						src = m.Receiver(&got)
					}
					for {
						idx, v, _ := Await(av, stop, src)
						if idx == 0 {
							log = append(log, name+" stopped")
							return
						}
						if !typed {
							got = v.(int)
						} else if v != nil {
							t.Errorf("%s: Await returned %v beside the typed element", name, v)
						}
						log = append(log, fmt.Sprintf("%s got %d", name, got))
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
					m.TrySend(99) // still buffered when stop closes: stop has priority
					stop.Close()
				},
			})
			// The order the wake-everyone-and-run kernel of PR 12 gives.
			want := "[w1 got 0 w2 got 1 w3 got 2 w2 got 3 w1 got 4 w3 got 5 w2 stopped w3 stopped w1 stopped]"
			if fmt.Sprint(log) != want {
				t.Fatalf("hand-out order:\n got %v\nwant %s", log, want)
			}
			if m.Len() != 1 {
				t.Fatalf("Len = %d, want the value no stopped worker took", m.Len())
			}
		})
	}
}

// TestEventFiresWhereItsActorsTimerWould: an event's deadline is keyed like
// a timer of an actor with the event's name. "node-b" keeps one deadline 10ms
// ahead, once as an actor arming a timer per round and once as an event
// re-arming itself, between two actors whose Sleep and NewTimerAt deadlines
// collide with it at every instant; both runs must log the same order, a, b,
// c.
func TestEventFiresWhereItsActorsTimerWould(t *testing.T) {
	const rounds = 5
	run := func(asEvent bool) []string {
		av := NewAutoVirtual()
		var log []string // appended under the execution token
		note := func(name string) {
			log = append(log, fmt.Sprintf("%s@%dms", name, av.Now().Sub(SimEpoch).Milliseconds()))
		}
		bodies := map[string]func(){
			"node-a": func() {
				for r := 0; r < rounds; r++ {
					av.Sleep(10 * time.Millisecond)
					note("node-a")
				}
			},
			"node-c": func() {
				for r := 0; r < rounds; r++ {
					Await(av, av.NewTimerAt(av.Now().Add(10*time.Millisecond)))
					note("node-c")
				}
			},
		}
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
			bodies["node-b"] = func() {
				for r := 0; r < rounds; r++ {
					Await(av, av.NewTimerAt(av.Now().Add(10*time.Millisecond)))
					note("node-b")
				}
			}
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
	gate, late := NewGate(av), NewGate(av)
	runs := 0
	var ev *Event
	ev = NewEvent(av, "ev", func() {
		runs++
		log = append(log, fmt.Sprintf("ev run %d", runs))
		if runs == 1 {
			late.Close() // wakes "late" before the re-trigger queues
			ev.Trigger()
		}
	})
	waiter := func(name string, g *Gate) func() {
		return func() {
			Await(av, g)
			log = append(log, name)
		}
	}
	runActors(av, map[string]func(){
		"a":    waiter("a", gate),
		"b":    waiter("b", gate),
		"late": waiter("late", late),
		"z-main": func() {
			av.Sleep(time.Millisecond) // a, b and late are parked on their gates now
			gate.Close()
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
// every primitive that would park it panics naming the event; the same
// primitives work when they need not park.
func TestEventMayNotPark(t *testing.T) {
	for name, park := range map[string]func(av *AutoVirtual){
		"Sleep":       func(av *AutoVirtual) { av.Sleep(time.Millisecond) },
		"Await empty": func(av *AutoVirtual) { Await(av, NewMailbox[int](av, 1)) },
		"Send full": func(av *AutoVirtual) {
			m := NewMailbox[int](av, 1)
			m.Send(1, nil) // has room: fine
			if _, v, _ := Await(av, m); v.(int) != 1 {
				panic("ready Await did not consume")
			}
			m.Send(2, nil)
			m.Send(3, nil) // full: would park
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

// TestEventAllocations: arming, firing, triggering and running an event
// allocate nothing.
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
