package clock

import (
	"container/heap"
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
	t := &deadline{clk: v}
	t.w = waiter{at: v.now.Add(d), repeat: d, tick: t}
	v.addWaiterLocked(&t.w)
	return t
}

// NewTimerAt implements Clock. A deadline at or before the current virtual
// instant fires immediately, so callers arming an absolute deadline cannot
// lose a wake-up to a jump of the clock.
func (v *AutoVirtual) NewTimerAt(at time.Time) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &deadline{clk: v}
	t.w = waiter{at: at, tick: t, index: -1}
	if !at.After(v.now) {
		t.fired = true // never enters the heap
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
	repeat  time.Duration
	tieName string
	tieSeq  int64
	tick    *deadline // the timer or ticker whose deadline this is
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
// re-arms itself on every fire), whether a fire awaits consumption, and the
// actors awaiting it. fired and watch are guarded by clk.mu.
type deadline struct {
	clk   *AutoVirtual
	w     waiter
	fired bool
	watch watchers
}

func (t *deadline) Stop() {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.clk.cancelLocked(&t.w)
}

func (t *deadline) attach(a *Actor) { t.watch.add(a) }
func (t *deadline) detach(a *Actor) { t.watch.remove(a) }

// tryConsumeLocked consumes a pending fire. Await reports the fire by index
// alone: boxing the instant into the any would cost one allocation per fire
// for a value Now already answers.
func (t *deadline) tryConsumeLocked() (any, bool, bool) {
	if !t.fired {
		return nil, false, false
	}
	t.fired = false
	return nil, true, true
}
