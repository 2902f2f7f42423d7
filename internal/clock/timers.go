package clock

import (
	"container/heap"
	"time"
)

// Now returns the current virtual instant.
func (v *AutoVirtual) Now() time.Time { return v.now }

// setNow moves the clock to the instant t, keeping now's location and its
// lack of a monotonic reading whatever t carries.
func (v *AutoVirtual) setNow(t time.Time) { v.now = v.now.Add(t.Sub(v.now)) }

// Since returns the virtual time elapsed since t.
func (v *AutoVirtual) Since(t time.Time) time.Duration { return v.now.Sub(t) }

// PendingWaiters reports the number of armed deadlines (events, sleeps),
// useful for asserting that components cleaned up after themselves.
func (v *AutoVirtual) PendingWaiters() int { return len(v.waiters) }

// cancel takes the waiter out of the heap if it is there. Stopped waiters
// leave at once, so the heap holds live deadlines only.
func (v *AutoVirtual) cancel(w *waiter) {
	if w.index >= 0 {
		heap.Remove(&v.waiters, w.index)
	}
}

// waiter is one pending deadline. It lives inside its owner — an Event, or
// the clock for its caller's Sleep — and is in the heap exactly while armed;
// a nonzero repeat (an Event's period) re-arms it as it fires.
type waiter struct {
	at      time.Time
	repeat  time.Duration
	tieName string
	tieSeq  int64
	event   *Event // the event whose deadline this is; nil for the caller's
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
