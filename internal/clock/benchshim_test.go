package clock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestMailboxPingPong runs the benchmark ledger's hand-off probe pattern:
// two goroutines announced with Fork and RegisterForked ping-pong a value
// through two mailboxes a thousand times. Under -race it shows that the
// shims share nothing with the clock. A round allocates at most the two
// boxes Await returns.
func TestMailboxPingPong(t *testing.T) {
	const rounds = 1000
	av := NewAutoVirtual()
	ping, pong := NewMailbox[int](av, 1), NewMailbox[int](av, 1)
	var last, got int
	var wg sync.WaitGroup
	wg.Add(2)
	Fork(av, 2)
	go func() {
		defer wg.Done()
		h := RegisterForked(av, "ping")
		defer h.Close()
		for i := 0; i < rounds; i++ {
			ping.Send(1000+i, nil)
			if _, v, ok := Await(av, pong); ok {
				last = v.(int)
			}
		}
	}()
	go func() {
		defer wg.Done()
		h := RegisterForked(av, "pong")
		defer h.Close()
		for i := 0; i < rounds; i++ {
			if _, v, ok := Await(av, ping); ok {
				got++
				pong.Send(v.(int)+1, nil)
			}
		}
	}()
	wg.Wait()
	if got != rounds || last != 1000+rounds {
		t.Fatalf("pong received %d of %d, last echo %d, want %d", got, rounds, last, 1000+rounds)
	}

	// The payload is large enough that boxing it cannot use the runtime's
	// small-integer table; a negative payload ends the echo.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, v, _ := Await(av, ping)
			if v.(int) < 0 {
				return
			}
			pong.Send(v.(int)+1, nil)
		}
	}()
	round := func() {
		ping.Send(1000, nil)
		if _, v, _ := Await(av, pong); v.(int) != 1001 {
			t.Fatalf("echo returned %v", v)
		}
	}
	if n := testing.AllocsPerRun(200, round); n > 2 {
		t.Errorf("mailbox round trip allocates %v times, want at most 2 (one box per hand-off)", n)
	}
	ping.Send(-1, nil)
	wg.Wait()
}

// TestMailboxBuffers: a mailbox holds up to its capacity, floored at 1, in
// order, and a Send to a full one panics.
func TestMailboxBuffers(t *testing.T) {
	av := NewAutoVirtual()
	m := NewMailbox[int](av, 5)
	for i := 0; i < 5; i++ {
		m.Send(i, nil)
	}
	mustPanic(t, "Mailbox.Send to a full mailbox of 5", func() { m.Send(5, nil) })
	for i := 0; i < 5; i++ {
		if idx, v, ok := Await(av, m); idx != 0 || !ok || v != i {
			t.Fatalf("Await = (%d, %v, ok=%v), want (0, %d, true)", idx, v, ok, i)
		}
	}
	one := NewMailbox[int](av, 0)
	one.Send(1, nil)
	mustPanic(t, "full mailbox of 1", func() { one.Send(2, nil) })
}

// TestRegisterNamesTheCaller: the caller's sleeps tie under the name given
// to Register, under "sleeper" before it and after Close, and Fork and
// RegisterForked change neither. Two events re-arm a second ahead under
// names that sort between "main" and "sleeper".
func TestRegisterNamesTheCaller(t *testing.T) {
	av := NewAutoVirtual()
	var log []string
	for _, name := range []string{"n", "r"} {
		var ev *Event
		ev = NewEvent(av, name, func() {
			log = append(log, name)
			ev.After(time.Second)
		})
		ev.After(time.Second)
		defer ev.Stop()
	}
	sleep := func(caller string) {
		av.Sleep(time.Second)
		log = append(log, caller)
	}
	sleep("sleeper") // returns after n and r at 1s
	h := Register(av, "main")
	sleep("main") // returns before them at 2s
	Fork(av, 1)
	RegisterForked(av, "x").Close()
	sleep("main") // runs them at 2s, returns before them at 3s
	h.Close()
	sleep("sleeper") // runs them at 3s, returns after them at 4s
	want := "[n r sleeper main n r main n r n r sleeper]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("order:\n got %s\nwant %s", got, want)
	}
}
