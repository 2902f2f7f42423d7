package clock

import (
	"container/heap"
	"reflect"
	"time"
)

// Now implements Clock. It is the most-called method of a simulation and
// takes no lock.
func (v *AutoVirtual) Now() time.Time {
	return v.start.Add(time.Duration(v.elapsed.Load()))
}

// setNowLocked moves the clock to the instant t, expressed as an offset from
// start so that Now returns a value == to now.
func (v *AutoVirtual) setNowLocked(t time.Time) {
	d := t.Sub(v.start)
	v.elapsed.Store(int64(d))
	v.now = v.start.Add(d)
}

// Since implements Clock.
func (v *AutoVirtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// NewTicker implements Clock.
func (v *AutoVirtual) NewTicker(d time.Duration) Ticker {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &deadline{clk: v, ch: make(chan time.Time, 1)}
	t.w = waiter{at: v.now.Add(d), ch: t.ch, repeat: d, wake: &t.watch}
	v.addWaiterLocked(&t.w)
	return t
}

// NewTimerAt implements Clock. A deadline at or before the current virtual
// instant fires immediately, so callers arming an absolute deadline cannot
// lose a wake-up to a jump of the clock.
func (v *AutoVirtual) NewTimerAt(at time.Time) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &deadline{clk: v, ch: make(chan time.Time, 1)}
	t.w = waiter{at: at, ch: t.ch, wake: &t.watch, index: -1}
	if !at.After(v.now) {
		t.ch <- v.now // never enters the heap
		return t
	}
	v.addWaiterLocked(&t.w)
	return t
}

// PendingWaiters reports the number of live timers/tickers, useful for
// asserting that components cleaned up after themselves.
func (v *AutoVirtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// addWaiterLocked enqueues the waiter with a deterministic tie-break
// identity. A waiter created by an actor holding the execution token is
// keyed by (actor name, per-actor counter), which is independent of the OS
// scheduling order actors happened to start in; everything else falls back
// to the clock-global creation sequence (the empty tieName sorts first).
func (v *AutoVirtual) addWaiterLocked(w *waiter) {
	v.addWaiterAsLocked(w, v.current)
}

// addWaiterAsLocked enqueues the waiter keyed as one of a's (nil: the
// clock-global sequence). An Event arms its deadline under its own name
// whoever the caller is.
func (v *AutoVirtual) addWaiterAsLocked(w *waiter, a *Actor) {
	if a != nil {
		a.waiterSeq++
		w.tieName = a.name
		w.tieSeq = a.waiterSeq
	} else {
		v.seq++
		w.tieName = ""
		w.tieSeq = v.seq
	}
	heap.Push(&v.waiters, w)
}

// cancelLocked takes the waiter out of the heap if it is there. Stopped
// waiters leave at once, so the heap holds live deadlines only.
func (v *AutoVirtual) cancelLocked(w *waiter) {
	if w.index >= 0 {
		heap.Remove(&v.waiters, w.index)
	}
}

// waiter is one pending deadline. It lives inside its owner — a timer, a
// ticker, an Event, or the Actor sleeping on it — and is in the heap exactly
// while armed.
type waiter struct {
	at      time.Time
	ch      chan time.Time // nil for an actor's sleep waiter
	repeat  time.Duration
	tieName string
	tieSeq  int64
	wake    *watchers // actors parked on this waiter via Await
	sleeper *Actor    // the actor parked on this waiter in Sleep
	event   *Event    // the event whose deadline this is
	index   int       // heap position, -1 while out of the heap
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		if h[i].tieName != h[j].tieName {
			return h[i].tieName < h[j].tieName
		}
		return h[i].tieSeq < h[j].tieSeq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	w.index = -1
	return w
}

// deadline is a virtual timer or ticker: the waiter it arms (a ticker's
// re-arms itself on every fire), the channel it ticks on, and the actors
// awaiting it.
type deadline struct {
	clk   *AutoVirtual
	ch    chan time.Time
	w     waiter
	watch watchers
}

func (t *deadline) C() <-chan time.Time { return t.ch }

func (t *deadline) Stop() {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.clk.cancelLocked(&t.w)
}

func (t *deadline) waitChan() reflect.Value { return reflect.ValueOf(t.ch) }
func (t *deadline) attach(a *Actor)         { t.watch.add(a) }
func (t *deadline) detach(a *Actor)         { t.watch.remove(a) }

// tryConsumeLocked takes a delivered tick off the channel. Await reports the
// fire by index alone: boxing the instant into the any would cost one
// allocation per fire for a value Now already answers.
func (t *deadline) tryConsumeLocked() (any, bool, bool) {
	select {
	case <-t.ch:
		return nil, true, true
	default:
		return nil, false, false
	}
}
