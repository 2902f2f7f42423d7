package clock

import (
	"container/heap"
	"time"
)

// Now returns the current virtual instant. It is the most-called method of
// a simulation and takes no lock.
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

// Since returns the virtual time elapsed since t.
func (v *AutoVirtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// PendingWaiters reports the number of armed deadlines (events, sleeps),
// useful for asserting that components cleaned up after themselves.
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

// waiter is one pending deadline. It lives inside its owner — an Event, or
// the Actor sleeping on it — and is in the heap exactly while armed; a
// nonzero repeat (an Event's period) re-arms it as it fires.
type waiter struct {
	at      time.Time
	repeat  time.Duration
	tieName string
	tieSeq  int64
	sleeper *Actor // the actor parked on this waiter in Sleep
	event   *Event // the event whose deadline this is
	index   int    // heap position, -1 while out of the heap
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
