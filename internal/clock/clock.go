// Package clock provides the one time source every component in the
// simulated cluster runs against (consensus pacemakers, block publishers,
// rate limiters, the COCONUT client phases): the deterministic,
// auto-advancing virtual clock AutoVirtual.
package clock

import "time"

// Clock abstracts the time source used by nodes and clients. AutoVirtual is
// its one implementation; the blocking primitives of this package (Register,
// Go, Await, Gate, Mailbox, Event) require it.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks for at least d.
	Sleep(d time.Duration)
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
	// NewTimerAt returns a timer firing once when the clock reaches the
	// absolute instant at; a deadline at or before Now fires immediately.
	// Schedulers use it to arm exact deadlines race-free: the deadline
	// cannot drift when the clock advances between computing it and arming
	// the timer.
	NewTimerAt(at time.Time) Timer
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Ticker fires at intervals. A fire is consumed by awaiting the ticker
// (Await); fires that arrive while one is still unconsumed are dropped, as
// time.Ticker drops ticks for a slow receiver.
type Ticker interface {
	Waitable
	Stop()
}

// Timer fires once. A fire is consumed by awaiting the timer (Await).
type Timer interface {
	Waitable
	Stop()
}
