package clock

import "time"

// Event is a named callback that the clock runs to completion: a deadline
// with a function where a Sleep has a waiting actor, for work that never
// parks in the middle of a step (the client's pacer, the transport's
// delivery, a producer's period, a Corda flow worker, the fault injector's
// timeline; Loop adds an inbox). After and At arm its
// one deadline, replacing the previous one, and Every arms a deadline that
// repeats; Trigger asks for a run now and leaves the deadline alone. Runs of
// one event never overlap, and requests made while a run is already owed
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
func NewEvent(v *AutoVirtual, name string, fn func()) *Event {
	e := &Event{fn: fn, v: v}
	e.w = waiter{event: e, index: -1}
	e.actor = &Actor{v: v, name: name, ev: e}
	return e
}

// After arms the event to run once d from now; with d <= 0 the run is owed
// at once.
func (e *Event) After(d time.Duration) {
	e.v.mu.Lock()
	e.armLocked(e.v.now.Add(d), 0)
}

// At arms the event to run once when the clock reaches t; with t at or
// before Now the run is owed at once.
func (e *Event) At(t time.Time) {
	e.v.mu.Lock()
	e.armLocked(t, 0)
}

// Every arms the event to run every d, which must be positive, first d from
// now. The first deadline ties under the event's name like any arm; the
// clock re-arms each repeat as it fires it, under the clock-global
// sequence.
func (e *Event) Every(d time.Duration) {
	e.v.mu.Lock()
	e.armLocked(e.v.now.Add(d), d)
}

// armLocked replaces the deadline in the heap; v.mu is held on entry and
// released.
func (e *Event) armLocked(at time.Time, repeat time.Duration) {
	v := e.v
	v.cancelLocked(&e.w)
	late := !at.After(v.now)
	if !late && !e.stopped {
		e.w.at = at
		e.w.repeat = repeat
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
// After, At, Every and Trigger a no-op; it returns only when fn is not
// running.
func (e *Event) Stop() {
	e.v.mu.Lock()
	e.stopped = true
	e.v.cancelLocked(&e.w)
	e.v.mu.Unlock()
}

// Loop is the receive loop of a component that never parks — a consensus
// engine, which handles messages and keeps a period — as two events of one
// name: Post queues a message in an unbounded typed inbox and owes the loop
// a run that hands every queued message, oldest first, to onMsg; Every
// gives it a period whose runs call onTick. A message never waits behind a
// fired period: the clock fires a deadline only with nothing queued to run.
// Stop stops both, dropping what is queued.
type Loop[T any] struct {
	*Event // the period
	serve  *Event
	inbox  ring[T] // touched by the token holder only
}

// NewLoop builds an unarmed loop, named like an Event.
func NewLoop[T any](v *AutoVirtual, name string, onMsg func(T), onTick func()) *Loop[T] {
	l := &Loop[T]{Event: NewEvent(v, name, onTick)}
	l.serve = NewEvent(v, name, func() {
		for l.inbox.len() > 0 {
			onMsg(l.inbox.pop())
		}
	})
	return l
}

// Post queues m and owes the loop a run.
func (l *Loop[T]) Post(m T) {
	l.inbox.push(m)
	l.serve.Trigger()
}

// Stop stops the period and the inbox's runs.
func (l *Loop[T]) Stop() {
	l.Event.Stop()
	l.serve.Stop()
}
