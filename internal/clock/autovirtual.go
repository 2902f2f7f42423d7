// Package clock provides the one time source every component in the
// simulated cluster runs against (consensus pacemakers, block publishers,
// rate limiters, the COCONUT client phases): the deterministic,
// auto-advancing virtual clock AutoVirtual.
package clock

import (
	"container/heap"
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

// AutoVirtual is the deterministic virtual clock: a single-goroutine
// discrete-event loop that runs on its caller. Everything the model runs is
// an Event (NewEvent), a named function the loop calls; the one caller that
// waits is the runner of a repetition (or a test standing in for it), and
// its Sleep is the loop:
//
//   - Sleep(d) arms the caller's deadline, d from now, keyed by the name the
//     caller gave Register ("sleeper" if it never registered) and a
//     per-caller sequence. It then runs the queued events, oldest first;
//     when none is queued it jumps the clock to the earliest deadline and
//     fires it. It returns when its own deadline fires. Sleep with d <= 0
//     returns at once and runs nothing.
//   - Outside a Sleep nothing runs: a Trigger, a Loop's Post and an arm at
//     or before Now only queue the event for the next Sleep.
//   - An event runs to completion. It may arm, trigger and stop events and
//     post to loops, but it has nothing to wait on: its Sleep panics naming
//     it.
//   - Deadlines tie by (name, sequence): an event's under its own name and
//     per-event sequence, the caller's under its name, and a deadline armed
//     by Every re-arms as it fires under "" and the clock-global sequence.
//     A reached deadline, a Trigger and a Loop's Post all queue the event at
//     the tail of the run queue, once, however many arrive before its turn.
//   - Stop removes the deadline and the queued turn; the event does not run
//     again.
//
// One goroutine drives the clock at a time, so its state is plain fields.
type AutoVirtual struct {
	now     time.Time
	waiters waiterHeap
	seq     int64 // the clock-global tie sequence of Every's repeats

	runq    ring[*Event] // events owed a run, oldest first
	running *Event       // the event whose function is running, if any

	caller    string // the name given to Register; "" means "sleeper"
	callerSeq int64  // the caller's tie sequence
	sleep     waiter // the caller's deadline, in the heap while it sleeps

	stats KernelStats
}

// NewAutoVirtual returns an auto-advancing virtual clock starting at
// SimEpoch.
func NewAutoVirtual() *AutoVirtual {
	return &AutoVirtual{now: SimEpoch, sleep: waiter{index: -1}}
}

// Sleep runs the clock until d from now; see the AutoVirtual contract. The
// caller's deadline lives in the clock, so a sleep allocates nothing.
func (v *AutoVirtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if e := v.running; e != nil {
		panic("clock: event " + e.name + " would park in Sleep: an event runs to completion inside its caller's Sleep and has nothing to wait on")
	}
	name := v.caller
	if name == "" {
		name = "sleeper"
	}
	v.callerSeq++
	v.sleep.at, v.sleep.tieName, v.sleep.tieSeq = v.now.Add(d), name, v.callerSeq
	heap.Push(&v.waiters, &v.sleep)
	for {
		for v.runq.len() > 0 {
			e := v.runq.pop()
			e.queued = false
			if e.stopped {
				continue
			}
			v.running = e
			v.stats.Events++
			e.fn()
			v.running = nil
		}
		w := heap.Pop(&v.waiters).(*waiter)
		v.setNow(w.at)
		v.stats.TimerFires++
		if w.event == nil {
			return // the caller's own deadline
		}
		if w.repeat > 0 {
			w.at = w.at.Add(w.repeat)
			v.seq++
			w.tieName, w.tieSeq = "", v.seq
			heap.Push(&v.waiters, w)
		}
		v.queue(w.event)
	}
}

// queue gives a fired or triggered event its turn: one place at the tail of
// the run queue, however often it is asked for before it runs.
func (v *AutoVirtual) queue(e *Event) {
	if !e.queued && !e.stopped {
		e.queued = true
		v.runq.push(e)
	}
}

// KernelStats counts what the event loop did. The counts repeat exactly at
// a fixed seed.
type KernelStats struct {
	Events     int64 // Event functions run
	TimerFires int64 // deadlines the clock jumped to and fired
}

// KernelStats returns the event loop's counters so far.
func (v *AutoVirtual) KernelStats() KernelStats { return v.stats }

// ring is a FIFO that grows by doubling and never shrinks; the run queue
// and a Loop's inbox are each one.
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
