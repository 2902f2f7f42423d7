package clock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SimEpoch is the instant every auto-advancing virtual run starts at. A
// fixed epoch keeps absolute timestamps (and therefore serialized results)
// identical across runs and machines.
var SimEpoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// Walltime returns the host wall-clock time. It is the single sanctioned
// wall-clock read: simulated-time speedup is sim-seconds divided by a wall
// measurement, which is definitionally not part of the deterministic
// surface.
func Walltime() time.Time { return time.Now() }

// AutoVirtual is the deterministic virtual clock, and it advances itself.
// Goroutines participating in a run register as actors; the clock hands an
// execution token to exactly one actor at a time, so the whole simulation
// executes as one deterministic serial order. When every actor is parked
// in a blocking primitive (Await, Sleep, Mailbox.Send) the clock jumps
// atomically to the earliest pending deadline — no polling, no wall-clock
// sleeps. If every actor is parked and no deadline remains, the run cannot
// ever make progress and the clock fails loudly with the parked-actor list.
//
// The contract actors must keep:
//
//   - Only a registered actor may call a parking primitive, and only from
//     the goroutine that registered. Outside this package actors are
//     started by Go, which announces, registers and closes them, and the
//     long-lived ones loop in Serve (stop, inbox, tick); the actorspawn
//     analyzer rejects any other go statement in actor packages.
//   - Every potentially blocking operation goes through the clock-aware
//     primitives. An actor that blocks on a bare channel while holding the
//     token freezes the whole clock (undetectably), which is exactly the bug
//     the wall-clock lint and the deadlock detector exist to keep out of the
//     tree.
//
// The caller of a parking primitive is the token holder. Actors are
// token-serialized, so while a token is out the one registered goroutine
// that can be executing is its holder; the primitives read the holder under
// the clock mutex and never ask the runtime who is calling. With no token
// out the caller cannot be an actor, and that much stays decidable: Sleep
// and Await register a transient actor for their duration, Mailbox.Send
// panics, and Handle.Close checks its handle against the holder. What
// cannot be seen at run time is an unregistered goroutine entering a
// parking primitive while some other actor holds the token: it would park
// that actor's identity.
// That was always a violation of the first rule; it is kept out statically
// (actorspawn: no go statement but Go's), not detected dynamically.
//
// A loop that receives from a Mailbox per message binds a Receiver to a
// variable of its own before the loop and awaits that instead of the
// Mailbox. The element is stored there typed — by the awaiting actor when it
// finds one buffered, by the scheduler when it consumes one for the parked
// actor it is about to grant — so a message crosses an inbox without the heap
// object that boxing it into Await's value costs. Only that actor reads the
// variable, between the Await that filled it and its next park; consumers
// sharing a mailbox bind one Receiver each.
//
// Work that never parks need not be an actor. An Event (NewEvent) is a named
// function the scheduler runs itself:
//
//   - It runs on whichever goroutine is scheduling — the actor that just
//     parked, or closed its handle, or the outsider whose TrySend found the
//     clock idle — in its turn in the run queue, with the clock mutex
//     released. No goroutine is woken for it and none is switched to.
//   - It holds the execution token while it runs, as a pseudo-actor carrying
//     its name: Now, Mailbox.Send with room, TrySend, Gate.Close, Await with
//     a source ready, arming timers (keyed under the event's name) and other
//     events' After/At/Trigger all work, and nothing else runs meanwhile.
//   - It may not park. Sleep, Await with nothing ready and Send to a full
//     Mailbox panic naming the event: it has no goroutine to block, and
//     blocking the scheduler's would freeze the clock.
//   - Its armed deadline ties with same-instant waiters by (name, per-event
//     sequence), as the timers of an actor of that name do. A reached
//     deadline and a Trigger both queue it at the tail of the run queue, once,
//     however many arrive before its turn.
//   - Stop removes the deadline and the queued turn; it is called by the
//     token holder or with no token out, so the function is not running when
//     it returns, and does not run again.
//
// Events are not registered actors: a clock with armed events and no actors
// stays idle, and the deadlock report lists actors only.
//
// Timers, tickers, sleeping actors and armed events are waiters in one heap
// ordered by (deadline, tie name, tie sequence); all fields are guarded by
// mu except elapsed, which Now reads without it.
type AutoVirtual struct {
	mu  sync.Mutex
	now time.Time
	// start and elapsed are now for readers that take no lock: now is always
	// start.Add(elapsed), written only by setNowLocked.
	start   time.Time
	elapsed atomic.Int64
	waiters waiterHeap
	seq     int64

	actors     map[*Actor]struct{}
	current    *Actor       // token holder, nil while idle or advancing
	runq       ring[*Actor] // FIFO of actors ready for the token
	forking    int          // children announced by Fork but not yet registered
	arrivals   []*Actor     // registered fork-wave children awaiting release
	dead       bool
	onDeadlock func(msg string)
	stats      KernelStats
}

var _ Clock = (*AutoVirtual)(nil)

// NewAutoVirtual returns an auto-advancing virtual clock starting at
// SimEpoch.
func NewAutoVirtual() *AutoVirtual {
	return &AutoVirtual{now: SimEpoch, start: SimEpoch, actors: make(map[*Actor]struct{})}
}

// Sleep implements Clock: the calling actor parks until the clock reaches
// the deadline. With no token out the caller is registered as a transient
// actor for the duration of the sleep, so tests can sleep on the simulated
// clock without joining a run explicitly. The deadline rides on the actor's
// own waiter, which wakes it directly: a sleep allocates nothing.
func (v *AutoVirtual) Sleep(d time.Duration) {
	v.mu.Lock()
	a := v.current
	if a == nil {
		v.mu.Unlock()
		h := Register(v, "sleeper")
		defer h.Close()
		a = h.a
		v.mu.Lock()
	}
	if d > 0 {
		a.sleep.at = v.now.Add(d)
		v.addWaiterLocked(&a.sleep)
		for a.sleep.index >= 0 {
			v.parkLocked(a)
		}
	}
	v.mu.Unlock()
}

// SetDeadlockHandler replaces the default deadlock reaction (panic) with
// fn, which receives the diagnostic message. Intended for tests.
func (v *AutoVirtual) SetDeadlockHandler(fn func(msg string)) {
	v.mu.Lock()
	v.onDeadlock = fn
	v.mu.Unlock()
}

type actorState int

const (
	actorRunning actorState = iota // holds the execution token
	actorReady                     // queued for the token
	actorParked                    // blocked in a clock primitive
)

// Actor is one registered participant of an auto-advancing run.
type Actor struct {
	v         *AutoVirtual
	name      string
	state     actorState
	grant     chan struct{}
	waiterSeq int64       // per-actor timer creation counter (tie-break identity)
	sleep     waiter      // armed while the actor is parked in Sleep
	ev        *Event      // set on an Event's pseudo-actor: no goroutine, may not park
	awaiting  []Waitable  // sources of the Await the actor is parked in
	got       awaitResult // what the scheduler consumed for that Await
}

// awaitResult is one Await's return triple.
type awaitResult struct {
	idx int
	val any
	ok  bool
}

// KernelStats counts what the scheduler did, the currency a run's wall time
// is paid in: every hand-off costs a goroutine switch, an event run and a
// timer fire cost a function call. The counts repeat exactly at a fixed seed.
type KernelStats struct {
	Handoffs   int64 // execution-token grants to a parked goroutine
	Events     int64 // Event functions run inline by the scheduler
	TimerFires int64 // deadlines the clock jumped to and fired
}

// KernelStats returns the scheduler's counters so far.
func (v *AutoVirtual) KernelStats() KernelStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// Handle identifies one registered actor.
type Handle struct{ a *Actor }

// Close detaches the actor from the clock and releases the execution token.
// It must be the goroutine's final interaction with the clock, made while it
// still holds the token.
func (h Handle) Close() { h.a.close() }

// Register joins the calling goroutine to the clock's schedule under the
// given name, blocking until it is granted the execution token. Names feed
// the deterministic timer tie-break and the deadlock diagnostics, so they
// must be derived from stable identities (node IDs, shard indices), never
// from creation order.
func Register(c Clock, name string) Handle {
	return Handle{a: c.(*AutoVirtual).register(name, false)}
}

// Go starts one actor per name, the way every actor outside this package
// is started. The whole wave is announced at once, so the clock cannot
// advance past the spawn gap however the OS schedules the goroutines, and
// its members are released in name order: names must be unique within a
// wave and derived from stable identities. Actor i runs fn(i), registered
// under names[i], and closes its handle when fn returns. The returned join
// blocks until every fn of the wave has returned. An actor that calls it
// parks like Await and resumes only after the last of them has closed its
// handle. A wave started from outside the run, with no token out, is joined
// from outside it: its join waits on a channel of its own and never joins
// the run, so it cannot be mistaken for the actor that holds the token by
// then.
func Go(c Clock, names []string, fn func(i int)) (join func()) {
	v := c.(*AutoVirtual)
	w := &wave{c: c}
	w.done.init(c)
	w.left.Store(int64(len(names)))
	v.mu.Lock()
	if v.current == nil {
		w.outside = make(chan struct{})
	}
	v.mu.Unlock()
	if len(names) == 0 {
		w.finished()
	}
	Fork(c, len(names))
	for i, name := range names {
		go func() {
			h := RegisterForked(c, name)
			defer h.Close()
			defer w.finish()
			fn(i)
		}()
	}
	return w.join
}

// wave is one Go call's join state, a single allocation for a wave an actor
// started: done closes when the last of left actors finishes, while it
// still holds the token, and so does outside, the channel of a wave started
// from outside the run.
type wave struct {
	c       Clock
	done    Gate
	left    atomic.Int64
	outside chan struct{}
}

func (w *wave) finish() {
	if w.left.Add(-1) == 0 {
		w.finished()
	}
}

func (w *wave) finished() {
	w.done.Close()
	if w.outside != nil {
		close(w.outside)
	}
}

func (w *wave) join() {
	if w.outside != nil {
		<-w.outside
		return
	}
	Await(w.c, &w.done)
}

// Serve is an actor's receive loop, called from inside the actor: until
// stop closes it hands each inbox message to onMsg and each tick of a
// period ticker to onTick, preferring stop, then the inbox, then the tick
// when several are ready. The ticker is armed here, by the actor, so its
// ties key under the actor's name. A nil inbox or a zero period drops that
// source.
func Serve[T any](c Clock, stop *Gate, inbox *Mailbox[T], period time.Duration, onMsg func(T), onTick func()) {
	srcs := append(make([]Waitable, 0, 3), stop)
	var m T
	if inbox != nil {
		srcs = append(srcs, inbox.Receiver(&m))
	}
	if period > 0 {
		tick := c.NewTicker(period)
		defer tick.Stop()
		srcs = append(srcs, tick)
	}
	for {
		switch i, _, _ := Await(c, srcs...); {
		case i == 0:
			return
		case inbox != nil && i == 1:
			onMsg(m)
		default:
			onTick()
		}
	}
}

// Fork announces that the current actor is about to spawn n goroutines that
// will each call RegisterForked. Go is the one way to do so; Fork and
// RegisterForked stay exported for the scheduler probes that time a bare
// hand-off.
func Fork(c Clock, n int) {
	av := c.(*AutoVirtual)
	av.mu.Lock()
	av.forking += n
	av.mu.Unlock()
}

// RegisterForked joins a goroutine announced by Fork, blocking until it is
// granted the execution token. Announced registrants are held back until the
// whole fork wave has arrived and then released in name order, so the OS
// scheduling order of the spawned goroutines never leaks into the schedule.
func RegisterForked(c Clock, name string) Handle {
	return Handle{a: c.(*AutoVirtual).register(name, true)}
}

func (v *AutoVirtual) register(name string, forked bool) *Actor {
	a := &Actor{v: v, name: name, grant: make(chan struct{}, 1)}
	a.sleep = waiter{sleeper: a, index: -1}
	v.mu.Lock()
	v.actors[a] = struct{}{}
	if forked && v.forking > 0 {
		v.forking--
		a.state = actorReady
		v.arrivals = append(v.arrivals, a)
		v.kickLocked() // once the last child is in, an idle scheduler releases the waves
		v.mu.Unlock()
		<-a.grant
		return a
	}
	if v.current == nil && v.runq.len() == 0 && v.forking == 0 {
		// Sole runnable actor: take the token immediately.
		v.current = a
		a.state = actorRunning
		v.mu.Unlock()
		return a
	}
	a.state = actorReady
	v.runq.push(a)
	v.kickLocked()
	v.mu.Unlock()
	<-a.grant
	return a
}

// flushArrivalsLocked releases the arrived fork waves into the run queue in
// name order. Actor names must therefore be unique within a wave for the
// release order to be fully deterministic.
func (v *AutoVirtual) flushArrivalsLocked() {
	sort.Slice(v.arrivals, func(i, j int) bool { return v.arrivals[i].name < v.arrivals[j].name })
	for _, a := range v.arrivals {
		v.runq.push(a)
	}
	v.arrivals = nil
}

func (a *Actor) close() {
	v := a.v
	v.mu.Lock()
	if v.current != a {
		v.mu.Unlock()
		panic("clock: actor " + a.name + " closed without holding the execution token")
	}
	delete(v.actors, a)
	v.current = nil
	v.scheduleLocked()
	v.mu.Unlock()
}

// kickLocked dispatches the scheduler if the token is unheld.
func (v *AutoVirtual) kickLocked() {
	if v.current == nil {
		v.scheduleLocked()
	}
}

// scheduleLocked hands the token to the next ready actor, running the events
// queued ahead of it right here, on the calling goroutine, each holding the
// token for the length of its function (the clock mutex is released around
// it; nobody else can schedule meanwhile, because the token is out).
//
// While a fork wave is registering nobody gets the token, and the waves are
// released here, when the token comes back, not as their last child
// arrives: every wave forked in one holder's turn joins the run queue as one
// batch in name order, after the actors already ready. So neither whether a
// ready actor runs before a wave nor how two waves interleave depends on how
// fast the OS started their goroutines.
//
// With no ready actor, every registered actor is parked, so the clock
// advances to the earliest deadline and fires it; deadlines fire one at a
// time so execution stays a single serial order even for timers sharing an
// instant. An empty heap with parked actors is a deadlock.
func (v *AutoVirtual) scheduleLocked() {
	if v.current != nil || v.dead {
		return
	}
	for {
		if v.forking > 0 {
			return // children on the way: the last to register schedules
		}
		if len(v.arrivals) > 0 {
			v.flushArrivalsLocked()
		}
		if v.runq.len() > 0 {
			a := v.runq.pop()
			if ev := a.ev; ev != nil {
				ev.queued = false
				if ev.stopped {
					continue
				}
				v.current = a
				v.stats.Events++
				v.mu.Unlock()
				ev.fn()
				v.mu.Lock()
				v.current = nil
				continue
			}
			if len(a.awaiting) > 0 {
				// Do the woken Await's first step here, under the same
				// lock: take its first ready source. An actor woken for a
				// source another actor drained first would find nothing
				// and park again, so it stays parked without the switch to
				// its goroutine and back.
				r, ready := a.consumeLocked(a.awaiting)
				if !ready {
					a.state = actorParked
					continue
				}
				a.got = r
				clear(a.awaiting)
				a.awaiting = a.awaiting[:0]
			}
			v.current = a
			a.state = actorRunning
			v.stats.Handoffs++
			a.grant <- struct{}{}
			return
		}
		if len(v.actors) == 0 {
			return // nothing registered: stay idle
		}
		if !v.advanceLocked() {
			v.deadlockLocked()
			return
		}
	}
}

// advanceLocked jumps the clock to the earliest deadline and fires it: a
// timer or ticker marks a fire for Await to consume (a ticker re-arms), and
// the waiter's parked watchers, sleeper or event get their turn. Returns
// false when no waiter remains.
func (v *AutoVirtual) advanceLocked() bool {
	if len(v.waiters) == 0 {
		return false
	}
	w := heap.Pop(&v.waiters).(*waiter)
	v.setNowLocked(w.at)
	if w.repeat > 0 {
		w.at = w.at.Add(w.repeat)
		v.addWaiterLocked(w)
	}
	v.stats.TimerFires++
	if w.event != nil {
		v.queueEventLocked(w.event)
	}
	if t := w.tick; t != nil {
		t.fired = true // an unconsumed fire absorbs this one, as time.Ticker drops ticks
		t.watch.wakeLocked(v)
	}
	if w.sleeper != nil {
		v.wakeLocked(w.sleeper)
	}
	return true
}

func (v *AutoVirtual) wakeLocked(a *Actor) {
	if a.state == actorParked {
		a.state = actorReady
		v.runq.push(a)
	}
}

// queueEventLocked gives a fired or triggered event its turn: one place at
// the tail of the run queue, however often it is asked for before it runs.
func (v *AutoVirtual) queueEventLocked(e *Event) {
	if !e.queued && !e.stopped {
		e.queued = true
		v.runq.push(e.actor)
	}
}

// parkLocked releases the token held by a and blocks it until a wake
// re-grants it. Callers hold v.mu; it is held again on return.
func (v *AutoVirtual) parkLocked(a *Actor) {
	if a.ev != nil {
		v.mu.Unlock()
		panic("clock: event " + a.name + " would park: an event runs to completion on the scheduler and has no goroutine to block")
	}
	a.state = actorParked
	v.current = nil
	v.scheduleLocked()
	v.mu.Unlock()
	<-a.grant
	v.mu.Lock()
}

// deadlockLocked reports that every actor is parked with nothing left to
// fire. The handler runs on its own goroutine so diagnostics (or a test's
// recovery) never deadlock on the clock mutex; the default handler panics.
func (v *AutoVirtual) deadlockLocked() {
	if v.dead {
		return
	}
	v.dead = true
	names := make([]string, 0, len(v.actors))
	for a := range v.actors {
		names = append(names, a.name)
	}
	sort.Strings(names)
	msg := fmt.Sprintf("clock: deadlock: all %d actors parked with no pending timers at %s: %s",
		len(names), v.now.Format(time.RFC3339Nano), strings.Join(names, ", "))
	h := v.onDeadlock
	if h == nil {
		h = func(m string) { panic(m) }
	}
	go h(msg)
}

// watchers is the parked-actor list attached to a waitable resource; wakes
// preserve attach order so scheduling stays deterministic.
type watchers struct{ list []*Actor }

func (w *watchers) add(a *Actor) {
	for _, x := range w.list {
		if x == a {
			return
		}
	}
	w.list = append(w.list, a)
}

func (w *watchers) remove(a *Actor) {
	for i, x := range w.list {
		if x == a {
			w.list = append(w.list[:i], w.list[i+1:]...)
			return
		}
	}
}

func (w *watchers) wakeLocked(v *AutoVirtual) {
	for _, a := range w.list {
		v.wakeLocked(a)
	}
}

// Waitable is a blocking source Await can select over: the clock's timers
// and tickers, Gate, Mailbox, and a Mailbox's Receiver. Implementations are
// provided by this package only.
type Waitable interface {
	// attach/detach subscribe a parked actor to the source's wake list;
	// tryConsumeLocked reports readiness and consumes the ready value.
	// All three run under the owning clock's mutex.
	attach(a *Actor)
	detach(a *Actor)
	tryConsumeLocked() (val any, ok bool, ready bool)
}

// Await blocks until one of the sources is ready and consumes it, returning
// the ready source's index, its value, and the receive's ok flag (false for
// a closed Gate or a closed, drained Mailbox). The value is the element
// received from a Mailbox awaited directly, boxed; a loop that receives per
// message awaits the mailbox's Receiver instead, which stores the element
// typed and leaves the value nil. Gates, timers and tickers carry no value
// worth boxing (the fire instant is Now). The caller is the token holder,
// and readiness is checked in argument order — lowest index wins — making
// multi-ready races deterministic; put the stop gate first so shutdown beats
// pending work. With no token out, i.e. from outside the run, the caller is
// registered as a transient actor for the duration of the wait, as in Sleep.
func Await(c Clock, srcs ...Waitable) (idx int, val any, ok bool) {
	v := c.(*AutoVirtual)
	v.mu.Lock()
	a := v.current
	if a == nil {
		v.mu.Unlock()
		h := Register(v, "awaiter")
		defer h.Close()
		a = h.a
		v.mu.Lock()
	}
	return v.await(a, srcs)
}

// await is Await for the token holder a; v.mu is held on entry and released
// before returning. With nothing ready the actor parks attached to
// every source; the scheduler re-grants it only once it has consumed one of
// them into a.got.
func (v *AutoVirtual) await(a *Actor, srcs []Waitable) (int, any, bool) {
	r, ready := a.consumeLocked(srcs)
	if !ready {
		a.awaiting = append(a.awaiting[:0], srcs...)
		for _, s := range srcs {
			s.attach(a)
		}
		v.parkLocked(a)
		r, a.got = a.got, awaitResult{}
	}
	v.mu.Unlock()
	return r.idx, r.val, r.ok
}

// consumeLocked consumes the first ready source in argument order on a's
// behalf and detaches a from all of them.
func (a *Actor) consumeLocked(srcs []Waitable) (r awaitResult, ready bool) {
	for i, s := range srcs {
		if val, ok, ready := s.tryConsumeLocked(); ready {
			for _, s2 := range srcs {
				s2.detach(a)
			}
			return awaitResult{i, val, ok}, true
		}
	}
	return awaitResult{}, false
}

// Gate is a broadcast close signal (the stop/done channel idiom) that parks
// actors instead of blocking them. The zero value is not usable; construct
// with NewGate. closed and w are guarded by v.mu.
type Gate struct {
	v      *AutoVirtual
	closed bool
	w      watchers
}

// NewGate builds an open gate on the clock.
func NewGate(c Clock) *Gate {
	g := &Gate{}
	g.init(c)
	return g
}

func (g *Gate) init(c Clock) { g.v = c.(*AutoVirtual) }

// Close opens the gate exactly once, waking every waiter; further Closes
// are no-ops.
func (g *Gate) Close() {
	g.v.mu.Lock()
	if !g.closed {
		g.closed = true
		g.w.wakeLocked(g.v)
		g.v.kickLocked()
	}
	g.v.mu.Unlock()
}

// Closed reports whether the gate has been closed.
func (g *Gate) Closed() bool {
	g.v.mu.Lock()
	defer g.v.mu.Unlock()
	return g.closed
}

func (g *Gate) attach(a *Actor) { g.w.add(a) }
func (g *Gate) detach(a *Actor) { g.w.remove(a) }
func (g *Gate) tryConsumeLocked() (any, bool, bool) {
	if g.closed {
		return nil, false, true
	}
	return nil, false, false
}

// Mailbox is a bounded FIFO channel whose blocking operations park actors.
// Capacity must be at least 1. Every operation runs under the clock mutex,
// so the buffer is a ring that grows on demand up to the capacity: an inbox
// sized for the worst case costs only what it actually held.
type Mailbox[T any] struct {
	v        *AutoVirtual
	q        ring[T] // guarded by v.mu, as are closed and the watchers
	capacity int
	closed   bool
	recvW    watchers // actors parked in Await
	sendW    watchers // actors parked in Send
}

// NewMailbox builds a mailbox with the given capacity (floored at 1).
func NewMailbox[T any](c Clock, capacity int) *Mailbox[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Mailbox[T]{v: c.(*AutoVirtual), capacity: capacity}
}

// Send enqueues val, blocking while the mailbox is full. It returns false
// without enqueueing when the mailbox is closed or abort (which may be nil)
// closes first. The caller must be a registered actor.
func (m *Mailbox[T]) Send(val T, abort *Gate) bool {
	v := m.v
	v.mu.Lock()
	a := v.current
	if a == nil {
		v.mu.Unlock()
		panic("clock: Mailbox.Send from a goroutine not registered with the AutoVirtual clock")
	}
	for {
		if m.closed || (abort != nil && abort.closed) {
			m.sendW.remove(a)
			if abort != nil {
				abort.w.remove(a)
			}
			v.mu.Unlock()
			return false
		}
		if m.q.len() < m.capacity {
			m.q.push(val)
			m.recvW.wakeLocked(v)
			m.sendW.remove(a)
			if abort != nil {
				abort.w.remove(a)
			}
			v.mu.Unlock()
			return true
		}
		m.sendW.add(a)
		if abort != nil {
			abort.w.add(a)
		}
		v.parkLocked(a)
	}
}

// TrySend enqueues val without blocking, reporting whether it fit.
func (m *Mailbox[T]) TrySend(val T) bool {
	v := m.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if m.closed || m.q.len() >= m.capacity {
		return false
	}
	m.q.push(val)
	m.recvW.wakeLocked(v)
	v.kickLocked()
	return true
}

// Close marks the mailbox closed: receivers drain the buffer then observe
// ok=false, senders fail. Any actor may close it, more than once.
func (m *Mailbox[T]) Close() {
	m.v.mu.Lock()
	if !m.closed {
		m.closed = true
		m.recvW.wakeLocked(m.v)
		m.sendW.wakeLocked(m.v)
		m.v.kickLocked()
	}
	m.v.mu.Unlock()
}

// Len reports the number of buffered values.
func (m *Mailbox[T]) Len() int {
	m.v.mu.Lock()
	defer m.v.mu.Unlock()
	return m.q.len()
}

func (m *Mailbox[T]) attach(a *Actor) { m.recvW.add(a) }
func (m *Mailbox[T]) detach(a *Actor) { m.recvW.remove(a) }
func (m *Mailbox[T]) tryConsumeLocked() (any, bool, bool) {
	val, ok, ready := m.popLocked()
	if !ready {
		return nil, false, false
	}
	return val, ok, true
}

// popLocked takes the oldest buffered element; a closed, drained mailbox is
// ready with the zero element and ok false.
func (m *Mailbox[T]) popLocked() (val T, ok, ready bool) {
	if m.q.len() > 0 {
		val = m.q.pop()
		m.sendW.wakeLocked(m.v)
		return val, true, true
	}
	return val, false, m.closed
}

// Receiver is one consumer's typed end of a Mailbox: an Await source that
// stores the received element in the consumer's own variable where the
// Mailbox itself would return it boxed in Await's value, an allocation per
// message. Bind it once, before the receive loop; Await's value is nil for
// it, and a closed, drained mailbox stores the zero element with ok false.
// The variable is written by whoever consumes on the consumer's behalf — the
// scheduler, before it grants the token — so it belongs to that one
// consumer: several consumers of one mailbox each bind their own.
type Receiver[T any] struct {
	*Mailbox[T]
	dst *T
}

// Receiver returns an Await source that receives from m into *dst.
func (m *Mailbox[T]) Receiver(dst *T) *Receiver[T] {
	return &Receiver[T]{Mailbox: m, dst: dst}
}

func (r *Receiver[T]) tryConsumeLocked() (any, bool, bool) {
	val, ok, ready := r.popLocked()
	if ready {
		*r.dst = val
	}
	return nil, ok, ready
}

// ring is a FIFO that grows by doubling and never shrinks; the scheduler's
// run queue and the Mailbox buffer are both one.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(x T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	x := r.buf[r.head]
	r.buf[r.head] = zero // drop the reference for the collector
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}
