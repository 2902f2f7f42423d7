package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is a named callback that the clock runs to completion: a timer with
// a function where a Timer has a channel, for the loops that never park in
// the middle of their work (the client's pacer, the transport's delivery).
// After and At arm its one deadline, replacing the previous one; Trigger asks
// for a run now and leaves the deadline alone. Runs of one event never
// overlap, and requests made while a run is already owed coalesce into it.
// fn may re-arm and re-trigger its own event; it must not Stop it.
//
// Where fn runs depends on the clock, and on nothing the caller can see:
//
//   - AutoVirtual: on whichever goroutine is scheduling, in the event's turn,
//     holding the execution token; whatever would park it panics naming the
//     event. The AutoVirtual contract comment has the rules (how deadlines
//     tie, where a fired or triggered event queues, what fn may call).
//   - Real: on one goroutine the event owns, which waits for the deadline or
//     a Trigger; there fn may block, and holds up only its own event.
//
// Stop disarms the event for good and returns only when fn is not running.
// Under AutoVirtual that holds because the caller is, as for every primitive
// of that clock, the token holder or outside a run with no token out.
type Event struct {
	fn      func()
	stopped atomic.Bool

	// AutoVirtual: the deadline is a waiter in v's heap exactly while armed.
	// actor is what sits in runq and holds the token during fn; queued
	// (guarded by v.mu) says it is in runq now.
	v      *AutoVirtual
	w      waiter
	actor  *Actor
	queued bool

	// Real, guarded by mu: owed marks a run to be made, which the event's
	// goroutine makes; wake pokes it after a state change and it closes done
	// when it exits.
	mu   sync.Mutex
	owed bool
	c    Clock
	at   time.Time // the deadline, zero while unarmed
	wake chan struct{}
	done chan struct{}
}

// NewEvent builds an unarmed event bound to the clock's scheduling mode.
// name feeds the deterministic tie-break and the diagnostics, like an
// actor's, and must be as stable and as unique.
func NewEvent(c Clock, name string, fn func()) *Event {
	e := &Event{fn: fn}
	if v, ok := c.(*AutoVirtual); ok {
		e.v = v
		e.w = waiter{event: e, index: -1}
		e.actor = &Actor{v: v, name: name, ev: e}
		return e
	}
	e.c = c
	e.wake = make(chan struct{}, 1)
	e.done = make(chan struct{})
	go e.loop()
	return e
}

// After arms the event to run once d from now; with d <= 0 the run is owed
// at once.
func (e *Event) After(d time.Duration) {
	if e.v == nil {
		e.At(e.c.Now().Add(d))
		return
	}
	e.v.mu.Lock()
	e.armLocked(e.v.now.Add(d))
}

// At arms the event to run once when the clock reaches t; with t at or
// before Now the run is owed at once.
func (e *Event) At(t time.Time) {
	if e.v == nil {
		e.mu.Lock()
		e.at = t // the goroutine's timer fires at once for an instant already past
		e.mu.Unlock()
		e.poke()
		return
	}
	e.v.mu.Lock()
	e.armLocked(t)
}

// armLocked replaces the deadline in the heap; v.mu is held on entry and
// released.
func (e *Event) armLocked(at time.Time) {
	v := e.v
	v.cancelLocked(&e.w)
	late := !at.After(v.now)
	if !late && !e.stopped.Load() {
		e.w.at = at
		v.addWaiterAsLocked(&e.w, e.actor)
	}
	v.mu.Unlock()
	if late {
		e.Trigger()
	}
}

// Trigger asks for a run now: in the event's turn under AutoVirtual, on its
// goroutine on the real clock.
func (e *Event) Trigger() {
	if e.v == nil {
		e.mu.Lock()
		e.owed = true
		e.mu.Unlock()
		e.poke()
		return
	}
	e.v.mu.Lock()
	e.v.queueEventLocked(e)
	e.v.kickLocked()
	e.v.mu.Unlock()
}

// Stop disarms the event, drops a run that is owed and makes every later
// After, At and Trigger a no-op; it returns only when fn is not running.
func (e *Event) Stop() {
	e.stopped.Store(true)
	if e.v == nil {
		e.poke()
		<-e.done
		return
	}
	e.v.mu.Lock()
	e.v.cancelLocked(&e.w)
	e.v.mu.Unlock()
}

func (e *Event) poke() {
	select {
	case e.wake <- struct{}{}:
	default: // a poke is pending already, and the goroutine re-reads all state
	}
}

// loop is the event's goroutine on a real clock: the pacer and delivery
// worker loops it replaced, written once.
func (e *Event) loop() {
	defer close(e.done)
	for {
		select {
		case <-e.wake: // whatever this poke announced is read below
		default:
		}
		e.mu.Lock()
		run, at := e.owed, e.at
		e.owed = false
		e.mu.Unlock()
		if e.stopped.Load() {
			return
		}
		if run {
			e.fn()
			continue
		}
		var timer Timer
		var reached <-chan time.Time
		if !at.IsZero() {
			timer = e.c.NewTimerAt(at)
			reached = timer.C()
		}
		select {
		case <-e.wake:
			if timer != nil {
				timer.Stop()
			}
		case <-reached:
			e.mu.Lock()
			if e.at.Equal(at) { // not re-armed meanwhile
				e.at, e.owed = time.Time{}, true
			}
			e.mu.Unlock()
		}
	}
}
