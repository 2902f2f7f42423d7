// Package clock provides the one time source every component in the
// simulated cluster runs against (consensus pacemakers, block publishers,
// rate limiters, the COCONUT client phases): the deterministic,
// auto-advancing virtual clock AutoVirtual.
package clock

import (
	"container/heap"
	"fmt"
	"slices"
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
// in a blocking primitive (Sleep, Await) the clock jumps atomically to the
// earliest pending deadline — no polling, no wall-clock sleeps. If every
// actor is parked and no deadline remains, the run cannot ever make
// progress and the clock fails loudly with the parked-actor list.
//
// The model itself has no actors: everything it runs is an Event. What is
// left on the actor kernel is the runner of a repetition, which registers
// itself and sleeps out each phase, the test goroutine of clocktest, and the
// scheduler probes of the benchmark ledger. The contract they keep:
//
//   - Only a registered actor may call a parking primitive, and only from
//     the goroutine that registered. The actorspawn analyzer rejects any go
//     statement in the model's packages, so no other goroutine exists there.
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
// and Await register a transient actor for their duration, and Handle.Close
// checks its handle against the holder.
//
// Work that never parks is an Event (NewEvent), a named function the
// scheduler runs itself:
//
//   - It runs on whichever goroutine is scheduling — the actor that just
//     parked, or closed its handle, or the outsider whose call found the
//     clock idle — in its turn in the run queue, with the clock mutex
//     released. No goroutine is woken for it and none is switched to.
//   - It holds the execution token while it runs, as a pseudo-actor carrying
//     its name: Now, Mailbox.Send, Await on a mailbox holding a value,
//     other events' After/At/Every/Trigger and a Loop's Post all work, and
//     nothing else runs meanwhile.
//   - It may not park. Sleep and Await with nothing ready panic naming the
//     event: it has no goroutine to block, and blocking the scheduler's
//     would freeze the clock.
//   - Its armed deadline ties with same-instant waiters by (name, per-event
//     sequence), as the sleeps of an actor of that name do; a deadline armed
//     by Every re-arms as it fires, under the clock-global sequence. A
//     reached deadline, a Trigger and a Loop's Post all queue it at the tail
//     of the run queue, once, however many arrive before its turn.
//   - Stop removes the deadline and the queued turn; it is called by the
//     token holder or with no token out, so the function is not running when
//     it returns, and does not run again.
//
// Events are not registered actors: a clock with armed events and no actors
// stays idle, and the deadlock report lists actors only.
//
// Sleeping actors and armed events are waiters in one heap ordered by
// (deadline, tie name, tie sequence); all fields are guarded by mu except
// elapsed, which Now reads without it.
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

// NewAutoVirtual returns an auto-advancing virtual clock starting at
// SimEpoch.
func NewAutoVirtual() *AutoVirtual {
	return &AutoVirtual{now: SimEpoch, start: SimEpoch, actors: make(map[*Actor]struct{})}
}

// Sleep parks the calling actor until the clock reaches the deadline. With
// no token out the caller is registered as a transient actor for the
// duration of the sleep, so tests can sleep on the simulated clock without
// joining a run explicitly. The deadline rides on the actor's own waiter,
// which wakes it directly: a sleep allocates nothing.
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
	waiterSeq int64  // per-actor deadline counter (tie-break identity)
	sleep     waiter // armed while the actor is parked in Sleep
	ev        *Event // set on an Event's pseudo-actor: no goroutine, may not park
	awaiting  inbox  // the mailbox the actor is parked in Await on
	got       any    // the value the scheduler took for that Await
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
// the deterministic deadline tie-break and the deadlock diagnostics, so they
// must be derived from stable identities (node IDs, shard indices), never
// from creation order.
func Register(v *AutoVirtual, name string) Handle {
	return Handle{a: v.register(name, false)}
}

// Fork announces that the current actor is about to spawn n goroutines that
// will each call RegisterForked, for the scheduler probes that time a bare
// hand-off.
func Fork(v *AutoVirtual, n int) {
	v.mu.Lock()
	v.forking += n
	v.mu.Unlock()
}

// RegisterForked joins a goroutine announced by Fork, blocking until it is
// granted the execution token. Announced registrants are held back until the
// whole fork wave has arrived and then released in name order, so the OS
// scheduling order of the spawned goroutines never leaks into the schedule.
func RegisterForked(v *AutoVirtual, name string) Handle {
	return Handle{a: v.register(name, true)}
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
// time so execution stays a single serial order even for deadlines sharing an
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
			if in := a.awaiting; in != nil {
				// Do the woken Await's step here, under the same lock: take
				// the value. An actor woken for a value another actor took
				// first would find nothing and park again, so it stays
				// parked without the switch to its goroutine and back.
				val, ok := in.takeLocked()
				if !ok {
					a.state = actorParked
					continue
				}
				in.detach(a)
				a.got, a.awaiting = val, nil
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

// advanceLocked jumps the clock to the earliest deadline and fires it: the
// waiter's sleeper or event gets its turn (an event's repeating deadline
// re-arms). Returns false when no waiter remains.
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

// inbox is what the scheduler needs of the mailbox an actor awaits: to take
// its oldest value, and to detach the actor once it has one.
type inbox interface {
	takeLocked() (val any, ok bool)
	detach(a *Actor)
}

// Await blocks until m holds a value and takes the oldest, returned boxed;
// idx is always 0 and ok always true. The caller is the token holder. With
// no token out, i.e. from outside the run, the caller is registered as a
// transient actor for the duration of the wait, as in Sleep.
func Await[T any](v *AutoVirtual, m *Mailbox[T]) (idx int, val any, ok bool) {
	v.mu.Lock()
	a := v.current
	if a == nil {
		v.mu.Unlock()
		h := Register(v, "awaiter")
		defer h.Close()
		a = h.a
		v.mu.Lock()
	}
	if val, ok = m.takeLocked(); !ok {
		// Park on m's wake list; the scheduler re-grants the token only
		// once it has taken a value into a.got.
		a.awaiting = m
		m.recvW = append(m.recvW, a)
		v.parkLocked(a)
		val, a.got = a.got, nil
	}
	v.mu.Unlock()
	return 0, val, true
}

// Mailbox is a bounded FIFO whose receive parks an actor until a value is
// there: Await takes from it. It exists for the hand-off probe of the
// benchmark ledger, which ping-pongs a value between two actors through a
// pair of mailboxes; the model uses none. Every operation runs under the
// clock mutex, and the buffer is a ring that grows on demand up to the
// capacity.
type Mailbox[T any] struct {
	v        *AutoVirtual
	q        ring[T] // guarded by v.mu, as is recvW
	capacity int
	recvW    []*Actor // actors parked in Await, in the order they parked
}

// NewMailbox builds a mailbox with the given capacity (floored at 1).
func NewMailbox[T any](v *AutoVirtual, capacity int) *Mailbox[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Mailbox[T]{v: v, capacity: capacity}
}

// Send enqueues val and wakes the actors awaiting the mailbox, in the order
// they parked: the first to run takes it, and the others stay parked.
// Nothing waits for room: a full mailbox panics. The second argument is
// unused.
func (m *Mailbox[T]) Send(val T, _ any) {
	v := m.v
	v.mu.Lock()
	if m.q.len() >= m.capacity {
		v.mu.Unlock()
		panic(fmt.Sprintf("clock: Mailbox.Send to a full mailbox of %d", m.capacity))
	}
	m.q.push(val)
	for _, a := range m.recvW {
		v.wakeLocked(a)
	}
	v.kickLocked()
	v.mu.Unlock()
}

func (m *Mailbox[T]) detach(a *Actor) {
	m.recvW = slices.DeleteFunc(m.recvW, func(x *Actor) bool { return x == a })
}

func (m *Mailbox[T]) takeLocked() (any, bool) {
	if m.q.len() == 0 {
		return nil, false
	}
	return m.q.pop(), true
}

// ring is a FIFO that grows by doubling and never shrinks; the scheduler's
// run queue, a Loop's inbox and the Mailbox buffer are each one.
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
