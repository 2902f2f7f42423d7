package clock

import "time"

// Event is a named callback that the clock runs to completion: a timer with
// a function where a Timer has a waiting actor, for the loops that never
// park in the middle of their work (the client's pacer, the transport's
// delivery). After and At arm its one deadline, replacing the previous one;
// Trigger asks for a run now and leaves the deadline alone. Runs of one
// event never overlap, and requests made while a run is already owed
// coalesce into it. fn may re-arm and re-trigger its own event; it must not
// Stop it.
//
// fn runs on whichever goroutine is scheduling, in the event's turn,
// holding the execution token; whatever would park it panics naming the
// event. The AutoVirtual contract comment has the rules (how deadlines tie,
// where a fired or triggered event queues, what fn may call).
//
// Stop disarms the event for good and returns only when fn is not running.
// That holds because the caller is, as for every primitive of the clock,
// the token holder or outside a run with no token out.
type Event struct {
	fn func()

	// The deadline is a waiter in v's heap exactly while armed. actor is
	// what sits in runq and holds the token during fn; queued says it is in
	// runq now. queued and stopped are guarded by v.mu.
	v       *AutoVirtual
	w       waiter
	actor   *Actor
	queued  bool
	stopped bool
}

// NewEvent builds an unarmed event on the clock. name feeds the
// deterministic tie-break and the diagnostics, like an actor's, and must be
// as stable and as unique.
func NewEvent(c Clock, name string, fn func()) *Event {
	v := c.(*AutoVirtual)
	e := &Event{fn: fn, v: v}
	e.w = waiter{event: e, index: -1}
	e.actor = &Actor{v: v, name: name, ev: e}
	return e
}

// After arms the event to run once d from now; with d <= 0 the run is owed
// at once.
func (e *Event) After(d time.Duration) {
	e.v.mu.Lock()
	e.armLocked(e.v.now.Add(d))
}

// At arms the event to run once when the clock reaches t; with t at or
// before Now the run is owed at once.
func (e *Event) At(t time.Time) {
	e.v.mu.Lock()
	e.armLocked(t)
}

// armLocked replaces the deadline in the heap; v.mu is held on entry and
// released.
func (e *Event) armLocked(at time.Time) {
	v := e.v
	v.cancelLocked(&e.w)
	late := !at.After(v.now)
	if !late && !e.stopped {
		e.w.at = at
		v.addWaiterAsLocked(&e.w, e.actor)
	}
	v.mu.Unlock()
	if late {
		e.Trigger()
	}
}

// Trigger asks for a run now, in the event's turn.
func (e *Event) Trigger() {
	e.v.mu.Lock()
	e.v.queueEventLocked(e)
	e.v.kickLocked()
	e.v.mu.Unlock()
}

// Stop disarms the event, drops a run that is owed and makes every later
// After, At and Trigger a no-op; it returns only when fn is not running.
func (e *Event) Stop() {
	e.v.mu.Lock()
	e.stopped = true
	e.v.cancelLocked(&e.w)
	e.v.mu.Unlock()
}
