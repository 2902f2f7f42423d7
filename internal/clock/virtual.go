package clock

import (
	"container/heap"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a deterministic clock for tests. Time only moves when Advance is
// called; timers and tickers fire synchronously during Advance in timestamp
// order, which makes timing-sensitive consensus tests reproducible.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
	// start and elapsed are now for readers that take no lock: now is always
	// start.Add(elapsed), written only by setNowLocked.
	start   time.Time
	elapsed atomic.Int64
	waiters waiterHeap
	seq     int64
	auto    *autoCore // non-nil only when wrapped by AutoVirtual
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at the given instant.
func NewVirtual(start time.Time) *Virtual {
	start = start.Round(0) // no monotonic reading: virtual instants compare with ==
	return &Virtual{now: start, start: start}
}

// Now implements Clock. It is the most-called method of a simulation and
// takes no lock.
func (v *Virtual) Now() time.Time {
	return v.start.Add(time.Duration(v.elapsed.Load()))
}

// setNowLocked moves the clock to the instant t, expressed as an offset from
// start so that Now returns a value == to now.
func (v *Virtual) setNowLocked(t time.Time) {
	d := t.Sub(v.start)
	v.elapsed.Store(int64(d))
	v.now = v.start.Add(d)
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline.
func (v *Virtual) Sleep(d time.Duration) { <-v.After(d) }

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	v.addWaiterLocked(&waiter{at: v.now.Add(d), ch: ch})
	return ch
}

// NewTicker implements Clock.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &virtualTicker{virtualDeadline{clk: v, ch: make(chan time.Time, 1)}}
	t.w = waiter{at: v.now.Add(d), ch: t.ch, repeat: d, wake: &t.watch}
	v.addWaiterLocked(&t.w)
	return t
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.newTimerAtLocked(v.now.Add(d))
}

// NewTimerAt implements Clock. A deadline at or before the current virtual
// instant fires immediately rather than waiting for an Advance, so callers
// arming an absolute deadline cannot lose a wake-up to a concurrent
// Advance.
func (v *Virtual) NewTimerAt(at time.Time) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.newTimerAtLocked(at)
}

func (v *Virtual) newTimerAtLocked(at time.Time) Timer {
	t := &virtualTimer{virtualDeadline{clk: v, ch: make(chan time.Time, 1)}}
	t.w = waiter{at: at, ch: t.ch, wake: &t.watch, index: -1}
	if !at.After(v.now) {
		t.ch <- v.now // never enters the heap
		return t
	}
	v.addWaiterLocked(&t.w)
	return t
}

// Advance moves the clock forward by d, firing every timer, ticker and event
// whose deadline falls within the window, in order; an event's function runs
// here, at its deadline, before the next waiter fires.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	for len(v.waiters) > 0 && !v.waiters[0].at.After(target) {
		if w := v.fireNextLocked(); w.event != nil {
			v.mu.Unlock()
			w.event.Trigger()
			v.mu.Lock()
		}
	}
	v.setNowLocked(target)
	v.mu.Unlock()
}

// PendingWaiters reports the number of live timers/tickers, useful for
// asserting that components cleaned up after themselves.
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// addWaiterLocked enqueues the waiter with a deterministic tie-break
// identity. A waiter created by an actor holding an AutoVirtual's execution
// token is keyed by (actor name, per-actor counter), which is independent of
// the OS scheduling order actors happened to start in; everything else falls
// back to the clock-global creation sequence (the empty tieName sorts first,
// preserving plain-Virtual ordering exactly).
func (v *Virtual) addWaiterLocked(w *waiter) {
	var holder *Actor
	if v.auto != nil {
		holder = v.auto.current
	}
	v.addWaiterAsLocked(w, holder)
}

// addWaiterAsLocked enqueues the waiter keyed as one of a's (nil: the
// clock-global sequence). An Event arms its deadline under its own name
// whoever the caller is.
func (v *Virtual) addWaiterAsLocked(w *waiter, a *Actor) {
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

// fireNextLocked pops the earliest waiter, moves the clock to its deadline,
// delivers the tick and re-arms a ticker.
func (v *Virtual) fireNextLocked() *waiter {
	w := heap.Pop(&v.waiters).(*waiter)
	v.setNowLocked(w.at)
	if w.ch != nil {
		select {
		case w.ch <- w.at:
		default: // slow receiver: drop the tick, as time.Ticker does
		}
	}
	if w.repeat > 0 {
		w.at = w.at.Add(w.repeat)
		v.addWaiterLocked(w)
	}
	return w
}

// cancelLocked takes the waiter out of the heap, reporting whether it was
// still due. Stopped waiters leave at once, so the heap holds live deadlines
// only and the owning timer can re-arm the same waiter.
func (v *Virtual) cancelLocked(w *waiter) (active bool) {
	if w.index < 0 {
		return false
	}
	active = v.now.Before(w.at)
	heap.Remove(&v.waiters, w.index)
	return active
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
	wake    *watchers // actors parked on this waiter via Await (auto mode)
	sleeper *Actor    // the actor parked on this waiter in Sleep (auto mode)
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

// virtualDeadline is what a virtual timer and ticker share: the waiter they
// arm and re-arm, the channel it ticks on, and the actors awaiting it.
type virtualDeadline struct {
	clk   *Virtual
	ch    chan time.Time
	w     waiter
	watch watchers
}

func (t *virtualDeadline) C() <-chan time.Time { return t.ch }

func (t *virtualDeadline) waitChan() reflect.Value { return reflect.ValueOf(t.ch) }
func (t *virtualDeadline) attach(a *Actor)         { t.watch.add(a) }
func (t *virtualDeadline) detach(a *Actor)         { t.watch.remove(a) }

// tryConsumeLocked takes a delivered tick off the channel. Await reports the
// fire by index alone: boxing the instant into the any would cost one
// allocation per fire for a value Now already answers.
func (t *virtualDeadline) tryConsumeLocked() (any, bool, bool) {
	select {
	case <-t.ch:
		return nil, true, true
	default:
		return nil, false, false
	}
}

type virtualTicker struct{ virtualDeadline }

func (t *virtualTicker) Stop() {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.clk.cancelLocked(&t.w)
}

func (t *virtualTicker) Reset(d time.Duration) {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	t.clk.cancelLocked(&t.w)
	t.w.at = t.clk.now.Add(d)
	t.w.repeat = d
	t.clk.addWaiterLocked(&t.w)
}

type virtualTimer struct{ virtualDeadline }

func (t *virtualTimer) Stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	return t.clk.cancelLocked(&t.w)
}

func (t *virtualTimer) Reset(d time.Duration) bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	active := t.clk.cancelLocked(&t.w)
	t.w.at = t.clk.now.Add(d)
	t.clk.addWaiterLocked(&t.w)
	return active
}
