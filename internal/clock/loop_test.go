package clock

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestLoopStopBeatsReadyInboxAndTick: messages posted at the instant the
// loop's period falls due are all handled before the tick; and when the
// loop is stopped with a message queued and its next tick due at that very
// instant, it handles neither and leaves no deadline armed.
func TestLoopStopBeatsReadyInboxAndTick(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "driver") // sorts before "server": it wakes first at a tie
	defer h.Close()
	var log []string
	serve := func(name string) *Loop[int] {
		l := NewLoop(av, name, func(m int) { log = append(log, fmt.Sprint(name, " msg", m)) },
			func() { log = append(log, fmt.Sprint(name, " tick@", av.Now().Sub(SimEpoch))) })
		l.Every(10 * time.Millisecond)
		return l
	}
	first := serve("server")
	av.Sleep(10 * time.Millisecond) // the first tick is due now, not yet run
	first.Post(1)
	first.Post(2)
	av.Sleep(time.Millisecond)
	first.Stop()
	second := serve("server2")
	av.Sleep(10 * time.Millisecond) // its first tick is due now, not yet run
	second.Post(3)
	second.Stop()
	av.Sleep(50 * time.Millisecond)
	if want := "[server msg1 server msg2 server tick@10ms]"; fmt.Sprint(log) != want {
		t.Fatalf("handled %v, want %s", log, want)
	}
	if n := av.PendingWaiters(); n != 0 {
		t.Fatalf("%d waiters left armed: Stop did not disarm the period", n)
	}
	second.Post(4)
	av.Sleep(time.Millisecond)
	if len(log) != 3 {
		t.Fatalf("a stopped loop handled %v", log[3:])
	}
}

// TestLoopPeriodTiesKeyUnderItsName: a loop's first deadline ties by the
// loop's name, not by arming order or by who armed it, and the clock
// re-arms each repeat as it fires, under its own sequence. "b" arms first,
// for a first tick at 20ms; "a" arms 10ms later, for a first tick at the
// same instant, and still runs first. At 40ms b's repeat, re-armed at 20ms,
// runs before a's, re-armed at 30ms.
func TestLoopPeriodTiesKeyUnderItsName(t *testing.T) {
	av := NewAutoVirtual()
	h := Register(av, "main")
	defer h.Close()
	var fired []string
	loop := func(name string, period time.Duration) *Loop[int] {
		l := NewLoop(av, name, func(int) {}, func() {
			fired = append(fired, fmt.Sprintf("%s@%v", name, av.Now().Sub(SimEpoch)))
		})
		l.Every(period)
		return l
	}
	b := loop("b", 20*time.Millisecond)
	av.Sleep(10 * time.Millisecond)
	a := loop("a", 10*time.Millisecond)
	av.Sleep(35 * time.Millisecond)
	a.Stop()
	b.Stop()
	if want := []string{"a@20ms", "b@20ms", "a@30ms", "b@40ms", "a@40ms"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("ticks fired %v, want %v", fired, want)
	}
}
