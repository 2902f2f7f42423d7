// Package clock provides an injectable time source so that every component in
// the simulated cluster (consensus pacemakers, block publishers, rate
// limiters, the COCONUT client phases) can run against either the wall clock
// or the deterministic, auto-advancing virtual clock (AutoVirtual).
package clock

import (
	"reflect"
	"time"
)

// Clock abstracts the time source used by nodes and clients.
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

// Ticker delivers ticks at intervals. It mirrors time.Ticker but is
// interface-based so the virtual clock can implement it. Every Ticker is a
// Waitable, so it can be a source in Await.
type Ticker interface {
	Waitable
	C() <-chan time.Time
	Stop()
}

// Timer delivers a single tick. It mirrors time.Timer. Every Timer is a
// Waitable, so it can be a source in Await.
type Timer interface {
	Waitable
	C() <-chan time.Time
	Stop()
}

// Real is a Clock backed by the time package. The zero value is ready to use.
type Real struct{}

var _ Clock = Real{}

// New returns the default wall-clock implementation.
func New() Clock { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return &realTicker{t: time.NewTicker(d)} }

// NewTimerAt implements Clock.
func (Real) NewTimerAt(at time.Time) Timer {
	d := time.Until(at)
	if d < 0 {
		d = 0
	}
	return &realTimer{t: time.NewTimer(d)}
}

type realTicker struct{ t *time.Ticker }

func (r *realTicker) C() <-chan time.Time { return r.t.C }
func (r *realTicker) Stop()               { r.t.Stop() }

// Real-clock tickers are only ever awaited through the reflect.Select path.
func (r *realTicker) waitChan() reflect.Value             { return reflect.ValueOf(r.t.C) }
func (r *realTicker) attach(*Actor)                       {}
func (r *realTicker) detach(*Actor)                       {}
func (r *realTicker) tryConsumeLocked() (any, bool, bool) { return nil, false, false }

type realTimer struct{ t *time.Timer }

func (r *realTimer) C() <-chan time.Time { return r.t.C }
func (r *realTimer) Stop()               { r.t.Stop() }

// Real-clock timers are only ever awaited through the reflect.Select path.
func (r *realTimer) waitChan() reflect.Value             { return reflect.ValueOf(r.t.C) }
func (r *realTimer) attach(*Actor)                       {}
func (r *realTimer) detach(*Actor)                       {}
func (r *realTimer) tryConsumeLocked() (any, bool, bool) { return nil, false, false }
