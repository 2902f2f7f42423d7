package clock

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestAutoVirtualAdvancesOnQuiescence checks the core contract: a lone
// caller sleeping on the clock never blocks on wall time — the clock jumps
// straight to the deadline.
func TestAutoVirtualAdvancesOnQuiescence(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "sleeper")
	defer h.Close()
	start, wall := av.Now(), Walltime()
	av.Sleep(10 * time.Hour)
	if d := av.Now().Sub(start); d != 10*time.Hour {
		t.Fatalf("slept %v of simulated time, want 10h", d)
	}
	if w := Walltime().Sub(wall); w > 5*time.Second {
		t.Fatalf("virtual 10h sleep took %v of wall time", w)
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after sleep, want 0", got)
	}
}

// TestAutoVirtualSameInstantPeriodsDeterministic arms periodic events in a
// scrambled order; their deadlines all fall at the same simulated instants,
// and the tie-break must order the first runs by name, not by arming order,
// and keep that order for the repeats the clock re-arms.
func TestAutoVirtualSameInstantPeriodsDeterministic(t *testing.T) {
	const rounds = 5
	names := []string{"node-3", "node-1", "node-4", "node-2"}
	run := func() []string {
		av := NewAutoVirtual()
		var log []string
		for _, name := range names {
			ev := NewEvent(av, name, func() { log = append(log, name) })
			ev.Every(10 * time.Millisecond)
			defer ev.Stop()
		}
		av.Sleep(rounds*10*time.Millisecond + time.Millisecond)
		return log
	}
	got := run()
	var want []string
	for i := 0; i < rounds; i++ {
		want = append(want, "node-1", "node-2", "node-3", "node-4")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("run order not name-deterministic:\n got %v\nwant %v", got, want)
	}
	if again := run(); fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatalf("two identical runs diverged:\n run1 %v\n run2 %v", got, again)
	}
}

// TestSleepRunsOnItsCaller: the loop is the caller's Sleep and nothing
// else. A Sleep that drives a thousand Loop posts and a thousand pre-armed
// deadlines starts no goroutine, during it or left after it, and allocates
// nothing for any of them. (A goroutine of an earlier test may still be
// exiting, so the count may fall, never rise.)
func TestSleepRunsOnItsCaller(t *testing.T) {
	const n = 1000
	av := NewAutoVirtual()
	h := Register(av, "driver")
	defer h.Close()
	goroutines := runtime.NumGoroutine()
	most := goroutines
	count := func() { most = max(most, runtime.NumGoroutine()) }
	handled, fired := 0, 0
	var loop *Loop[int]
	loop = NewLoop(av, "loop", func(m int) {
		handled++
		count()
		if m > 1 {
			loop.Post(m - 1)
		}
	}, func() {})
	defer loop.Stop()
	loop.Post(1)
	av.Sleep(time.Microsecond) // the inbox and the run queue grow once
	events := make([]*Event, n)
	for i := range events {
		events[i] = NewEvent(av, fmt.Sprintf("ev-%04d", i), func() { fired++; count() })
		events[i].After(time.Duration(i+1) * time.Microsecond)
	}
	loop.Post(n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	av.Sleep(time.Duration(n+1) * time.Microsecond)
	runtime.ReadMemStats(&m1)
	if handled != 1+n || fired != n {
		t.Fatalf("handled %d posts and fired %d deadlines, want %d and %d", handled, fired, 1+n, n)
	}
	if after := runtime.NumGoroutine(); most > goroutines || after > goroutines {
		t.Fatalf("goroutines: %d before, up to %d during the Sleep, %d after", goroutines, most, after)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs != 0 {
		t.Fatalf("the Sleep allocated %d times for %d events, want 0", allocs, 2*n)
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestNonPositiveSleepRunsNothing: a Sleep of d <= 0 returns at once and
// runs nothing — not a triggered event, an arm already due or a posted
// message — and neither moves the clock nor arms or fires a deadline. The
// next positive Sleep runs them first, in the order they were queued, at
// the instant it starts.
func TestNonPositiveSleepRunsNothing(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			av := NewAutoVirtual()
			h := Register(av, "runner")
			defer h.Close()
			var log []string
			note := func(name string) {
				log = append(log, fmt.Sprintf("%s@%v", name, av.Now().Sub(SimEpoch)))
			}
			NewEvent(av, "trig", func() { note("trig") }).Trigger()
			NewEvent(av, "due", func() { note("due") }).After(0)
			loop := NewLoop(av, "loop", func(m int) { note(fmt.Sprint("msg", m)) }, func() {})
			loop.Post(7)
			before := av.KernelStats()
			av.Sleep(d)
			if len(log) != 0 || !av.Now().Equal(SimEpoch) || av.PendingWaiters() != 0 || av.KernelStats() != before {
				t.Fatalf("Sleep(%v) ran %v, clock at %v, %d waiters, stats %+v (were %+v)",
					d, log, av.Now().Sub(SimEpoch), av.PendingWaiters(), av.KernelStats(), before)
			}
			av.Sleep(time.Millisecond)
			if want := "[trig@0s due@0s msg7@0s]"; fmt.Sprint(log) != want {
				t.Fatalf("the next Sleep ran %v, want %s", log, want)
			}
		})
	}
}

// TestOutsideASleepArmsOnlyQueue: outside a Sleep nothing runs. A Trigger,
// an After or At at or before Now, and a Loop's Post each only owe a run,
// without arming a deadline; asked for twice, the run is still one, and it
// is the first thing the next Sleep does, with the clock where it stood.
func TestOutsideASleepArmsOnlyQueue(t *testing.T) {
	for _, tc := range []struct {
		how  string
		arm  func(av *AutoVirtual, note func()) func()
		runs int // fn calls in the one run
	}{
		{"Trigger", func(av *AutoVirtual, note func()) func() { return NewEvent(av, "ev", note).Trigger }, 1},
		{"After zero", func(av *AutoVirtual, note func()) func() {
			ev := NewEvent(av, "ev", note)
			return func() { ev.After(0) }
		}, 1},
		{"After negative", func(av *AutoVirtual, note func()) func() {
			ev := NewEvent(av, "ev", note)
			return func() { ev.After(-time.Second) }
		}, 1},
		{"At now", func(av *AutoVirtual, note func()) func() {
			ev := NewEvent(av, "ev", note)
			return func() { ev.At(av.Now()) }
		}, 1},
		{"At past", func(av *AutoVirtual, note func()) func() {
			ev := NewEvent(av, "ev", note)
			return func() { ev.At(SimEpoch) }
		}, 1},
		{"Post", func(av *AutoVirtual, note func()) func() {
			loop := NewLoop(av, "loop", func(int) { note() }, func() {})
			return func() { loop.Post(1) }
		}, 2},
	} {
		t.Run(tc.how, func(t *testing.T) {
			av := NewAutoVirtual()
			h := Register(av, "runner")
			defer h.Close()
			av.Sleep(time.Second) // off the epoch, so the epoch is in the past
			var at []time.Duration
			arm := tc.arm(av, func() { at = append(at, av.Now().Sub(SimEpoch)) })
			arm()
			arm()
			if len(at) != 0 || av.PendingWaiters() != 0 {
				t.Fatalf("outside a Sleep: ran at %v with %d waiters, want nothing run or armed", at, av.PendingWaiters())
			}
			before := av.KernelStats().Events
			av.Sleep(time.Second)
			if len(at) != tc.runs || at[0] != time.Second || at[len(at)-1] != time.Second {
				t.Fatalf("ran at %v, want %d calls at 1s, where the Sleep started", at, tc.runs)
			}
			if got := av.KernelStats().Events - before; got != 1 {
				t.Fatalf("KernelStats.Events grew by %d, want one run for both requests", got)
			}
		})
	}
}

// TestSleepLeavesLaterTiesArmed: Sleep returns as soon as its own deadline
// fires. An event due at the same instant under a name after the caller's
// stays armed, and the next Sleep runs it first, without the clock moving.
func TestSleepLeavesLaterTiesArmed(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "main")
	defer h.Close()
	var ranAt []time.Duration
	NewEvent(av, "zz", func() { ranAt = append(ranAt, av.Now().Sub(SimEpoch)) }).After(time.Second)
	av.Sleep(time.Second)
	if len(ranAt) != 0 || av.PendingWaiters() != 1 || av.Now().Sub(SimEpoch) != time.Second {
		t.Fatalf("after the Sleep: zz ran at %v, %d waiters, clock at %v; want zz armed at 1s",
			ranAt, av.PendingWaiters(), av.Now().Sub(SimEpoch))
	}
	av.Sleep(time.Second)
	if fmt.Sprint(ranAt) != "[1s]" || av.PendingWaiters() != 0 {
		t.Fatalf("zz ran at %v with %d waiters left, want once at 1s and none", ranAt, av.PendingWaiters())
	}
}

// TestKernelStatsCount: Events counts the event functions run and
// TimerFires the deadlines the clock jumped to, the caller's own included.
func TestKernelStatsCount(t *testing.T) {
	grew := func(av *AutoVirtual, f func()) KernelStats {
		before := av.KernelStats()
		f()
		after := av.KernelStats()
		return KernelStats{Events: after.Events - before.Events, TimerFires: after.TimerFires - before.TimerFires}
	}
	t.Run("a coalesced trigger is one run", func(t *testing.T) {
		av := NewAutoVirtual()
		ev := NewEvent(av, "ev", func() {})
		got := grew(av, func() {
			ev.Trigger()
			ev.Trigger()
			ev.Trigger()
			av.Sleep(time.Second)
		})
		if want := (KernelStats{Events: 1, TimerFires: 1}); got != want {
			t.Fatalf("stats grew by %+v, want %+v", got, want)
		}
	})
	t.Run("each deadline fired", func(t *testing.T) {
		av := NewAutoVirtual()
		for i, name := range []string{"a", "b", "c"} {
			NewEvent(av, name, func() {}).After(time.Duration(i+1) * time.Millisecond)
		}
		tick := NewEvent(av, "tick", func() {})
		tick.Every(10 * time.Millisecond)
		defer tick.Stop()
		got := grew(av, func() { av.Sleep(45 * time.Millisecond) })
		if want := (KernelStats{Events: 3 + 4, TimerFires: 3 + 4 + 1}); got != want {
			t.Fatalf("stats grew by %+v, want %+v: three deadlines, four ticks and the caller's", got, want)
		}
	})
	t.Run("a stopped deadline or turn", func(t *testing.T) {
		av := NewAutoVirtual()
		armed, queued := NewEvent(av, "armed", func() {}), NewEvent(av, "queued", func() {})
		armed.After(time.Millisecond)
		queued.Trigger()
		armed.Stop()
		queued.Stop()
		got := grew(av, func() { av.Sleep(time.Second) })
		if want := (KernelStats{TimerFires: 1}); got != want {
			t.Fatalf("stats grew by %+v, want %+v: only the caller's deadline", got, want)
		}
	})
	t.Run("a non-positive sleep", func(t *testing.T) {
		av := NewAutoVirtual()
		NewEvent(av, "ev", func() {}).Trigger()
		got := grew(av, func() {
			av.Sleep(0)
			av.Sleep(-time.Second)
		})
		if got != (KernelStats{}) {
			t.Fatalf("stats grew by %+v, want nothing", got)
		}
	})
}
