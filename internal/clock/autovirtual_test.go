package clock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAutoVirtualAdvancesOnQuiescence checks the core contract: a lone actor
// sleeping on the clock never blocks on wall time — the clock jumps straight
// to the deadline.
func TestAutoVirtualAdvancesOnQuiescence(t *testing.T) {
	av := NewAutoVirtual()
	done := make(chan time.Duration, 1)
	go func() {
		h := Register(av, "sleeper")
		defer h.Close()
		start := av.Now()
		av.Sleep(10 * time.Hour)
		done <- av.Now().Sub(start)
	}()
	select {
	case d := <-done:
		if d != 10*time.Hour {
			t.Fatalf("slept %v of simulated time, want 10h", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual 10h sleep did not complete within 5s of wall time")
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after sleep, want 0", got)
	}
}

// TestAutoVirtualDeadlockDetection parks two actors with nothing on the
// heap and checks the diagnostic names every parked actor.
func TestAutoVirtualDeadlockDetection(t *testing.T) {
	av := NewAutoVirtual()
	msgs := make(chan string, 1)
	av.SetDeadlockHandler(func(m string) { msgs <- m })
	never := NewMailbox[int](av, 1) // nothing is ever sent: guaranteed deadlock
	names := []string{"idle-beta", "idle-alpha"}
	Fork(av, len(names))
	for _, name := range names {
		go func(name string) {
			h := RegisterForked(av, name)
			defer h.Close()
			Await(av, never)
		}(name)
	}
	select {
	case m := <-msgs:
		if !strings.Contains(m, "deadlock") ||
			!strings.Contains(m, "idle-alpha, idle-beta") {
			t.Fatalf("deadlock message missing sorted actor list: %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock was not detected within 5s")
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

// TestAutoVirtualRegisterChurn hammers register/park/close from many
// goroutines at once; run under -race this validates the scheduler's locking
// around actor lifetime and the mailbox wake path. The producer ends each
// consumer with a -1.
func TestAutoVirtualRegisterChurn(t *testing.T) {
	av := NewAutoVirtual()
	const workers = 12
	mbox := NewMailbox[int](av, 5*workers) // never full
	var wg sync.WaitGroup

	Fork(av, workers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := RegisterForked(av, "producer")
		defer h.Close()
		for i := 0; i < 4*workers; i++ {
			av.Sleep(time.Millisecond)
			mbox.Send(i, nil)
		}
		for i := 0; i < workers; i++ {
			mbox.Send(-1, nil)
		}
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := RegisterForked(av, fmt.Sprintf("consumer-%d", i))
			defer h.Close()
			for {
				av.Sleep(time.Duration(i+1) * time.Millisecond)
				if _, v, _ := Await(av, mbox); v.(int) < 0 {
					return
				}
			}
		}(i)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("churn run did not drain within 10s of wall time")
	}
	if got := av.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after churn, want 0", got)
	}
}
