package clock

import (
	"container/heap"
	"time"
)

// Event is a named callback that the clock runs to completion: a deadline
// with a function where a Sleep has its caller, for work that never waits
// in the middle of a step (the client's pacer, the transport's delivery, a
// producer's period, a Corda flow worker, the fault injector's timeline;
// Loop adds an inbox). After and At arm its one deadline, replacing the
// previous one, and Every arms a deadline that repeats; Trigger asks for a
// run now and leaves the deadline alone. Runs of one event never overlap,
// and requests made while a run is already owed coalesce into it. fn may
// re-arm and re-trigger its own event. The AutoVirtual contract comment has
// the rules (how deadlines tie, where a fired or triggered event queues,
// what fn may call).
type Event struct {
	fn   func()
	name string
	v    *AutoVirtual
	// The deadline is a waiter in v's heap exactly while armed; seq is the
	// event's tie sequence. queued says the event is in v's run queue.
	w       waiter
	seq     int64
	queued  bool
	stopped bool
}

// NewEvent builds an unarmed event on the clock. name feeds the
// deterministic tie-break and the diagnostics and must be stable and
// unique.
func NewEvent(v *AutoVirtual, name string, fn func()) *Event {
	e := &Event{fn: fn, name: name, v: v}
	e.w = waiter{event: e, index: -1}
	return e
}

// After arms the event to run once d from now; with d <= 0 the run is owed
// at once.
func (e *Event) After(d time.Duration) { e.arm(e.v.now.Add(d), 0) }

// At arms the event to run once when the clock reaches t; with t at or
// before Now the run is owed at once.
func (e *Event) At(t time.Time) { e.arm(t, 0) }

// Every arms the event to run every d, which must be positive, first d from
// now. The first deadline ties under the event's name like any arm; the
// clock re-arms each repeat as it fires it, under the clock-global
// sequence.
func (e *Event) Every(d time.Duration) { e.arm(e.v.now.Add(d), d) }

// arm replaces the deadline in the heap, or owes a run at once if at has
// been reached.
func (e *Event) arm(at time.Time, repeat time.Duration) {
	v := e.v
	v.cancel(&e.w)
	if !at.After(v.now) {
		v.queue(e)
		return
	}
	if !e.stopped {
		e.seq++
		e.w.at, e.w.repeat, e.w.tieName, e.w.tieSeq = at, repeat, e.name, e.seq
		heap.Push(&v.waiters, &e.w)
	}
}

// Trigger asks for a run now, in the event's turn.
func (e *Event) Trigger() { e.v.queue(e) }

// Stop disarms the event, drops a run that is owed and makes every later
// After, At, Every and Trigger a no-op.
func (e *Event) Stop() {
	e.stopped = true
	e.v.cancel(&e.w)
}

// Loop is the receive loop of a component that never waits — a consensus
// engine, which handles messages and keeps a period — as two events of one
// name: Post queues a message in an unbounded typed inbox and owes the loop
// a run that hands every queued message, oldest first, to onMsg; Every
// gives it a period whose runs call onTick. A message never waits behind a
// fired period: the clock fires a deadline only with nothing queued to run.
// Stop stops both, dropping what is queued.
type Loop[T any] struct {
	*Event // the period
	serve  *Event
	inbox  ring[T]
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
