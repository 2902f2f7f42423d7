package network

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
)

// TestSchedulerDeterministicUnderVirtualClock: with a virtual clock and
// constant per-link latencies, the wheel delivers in exact (ready time,
// enqueue order) sequence, reproducibly across runs.
func TestSchedulerDeterministicUnderVirtualClock(t *testing.T) {
	run := func() []string {
		clk := clock.NewVirtual(time.Unix(100, 0))
		lat := NewAsymmetricLatency(ZeroLatency{})
		lat.SetLink("a", "dst", ConstantLatency{D: 30 * time.Millisecond})
		lat.SetLink("b", "dst", ConstantLatency{D: 10 * time.Millisecond})
		lat.SetLink("c", "dst", ConstantLatency{D: 20 * time.Millisecond})
		tr := NewTransport(clk, lat)
		defer tr.Stop()

		var mu sync.Mutex
		var order []string
		tr.Register("dst", func(m Message) {
			mu.Lock()
			order = append(order, m.From+":"+m.Kind)
			mu.Unlock()
		})
		for i := 0; i < 3; i++ {
			kind := fmt.Sprintf("m%d", i)
			for _, src := range []string{"a", "b", "c"} {
				if err := tr.Send(src, "dst", kind, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		clk.Advance(40 * time.Millisecond)
		waitDelivered(t, tr, 9, 2*time.Second)
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), order...)
	}

	want := []string{
		"b:m0", "b:m1", "b:m2", // 10ms link, enqueue order
		"c:m0", "c:m1", "c:m2", // 20ms link
		"a:m0", "a:m1", "a:m2", // 30ms link
	}
	for attempt := 0; attempt < 3; attempt++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("attempt %d: delivered %d messages, want %d", attempt, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("attempt %d: order[%d] = %s, want %s (full: %v)", attempt, i, got[i], want[i], got)
			}
		}
	}
}

// TestPerLinkFIFOUnderMixedLatencies: per-directed-link FIFO must survive
// per-message random latency draws and concurrent senders — the ready-time
// clamp makes later sends on a link never overtake earlier ones.
func TestPerLinkFIFOUnderMixedLatencies(t *testing.T) {
	tr := NewTransport(clock.New(), NewNormalLatency(300*time.Microsecond, 300*time.Microsecond, 7))
	defer tr.Stop()

	const senders = 4
	const perSender = 150
	var mu sync.Mutex
	last := map[string]int{}
	var violations []string
	done := make(chan struct{})
	total := 0
	tr.Register("dst", func(m Message) {
		mu.Lock()
		seq := m.Payload.(int)
		if prev, ok := last[m.From]; ok && seq <= prev {
			violations = append(violations, fmt.Sprintf("%s: %d after %d", m.From, seq, prev))
		}
		last[m.From] = seq
		total++
		if total == senders*perSender {
			close(done)
		}
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := fmt.Sprintf("src%d", s)
			for i := 0; i < perSender; i++ {
				if err := tr.Send(src, "dst", "seq", i); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for deliveries")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("per-link FIFO violated %d times, e.g. %s", len(violations), violations[0])
	}
}

// TestQueueOverflowDropAccounting: a full endpoint queue rejects the send
// and counts the drop, without disturbing sent/lost accounting.
func TestQueueOverflowDropAccounting(t *testing.T) {
	// One-hour latency parks every message in the scheduler (far heap).
	tr := NewTransport(clock.New(), ConstantLatency{D: time.Hour})
	defer tr.Stop()
	tr.Register("dst", func(Message) { t.Error("nothing should be delivered") })

	const excess = 50
	fails := 0
	var firstErr error
	for i := 0; i < endpointQueueDepth+excess; i++ {
		if err := tr.Send("src", "dst", "k", nil); err != nil {
			fails++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if fails != excess {
		t.Fatalf("rejected sends = %d, want %d (first err: %v)", fails, excess, firstErr)
	}
	sent, delivered, dropped := tr.Stats()
	if sent != endpointQueueDepth+excess {
		t.Fatalf("sent = %d, want %d", sent, endpointQueueDepth+excess)
	}
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
	if dropped != excess {
		t.Fatalf("dropped = %d, want %d", dropped, excess)
	}
	if tr.LostCount() != 0 {
		t.Fatalf("lost = %d, want 0 (overflow is not link loss)", tr.LostCount())
	}
}

// TestDegradedLossDeterministicPerLink: loss draws come from a per-link
// seeded RNG, so the a→b loss sequence is identical whether or not other
// links carry (lossy) traffic in between. The seed's single global RNG
// could not guarantee this.
func TestDegradedLossDeterministicPerLink(t *testing.T) {
	run := func(interleave bool) int {
		tr := NewTransport(clock.New(), nil)
		defer tr.Stop()
		var fromA atomic.Int64
		tr.Register("b", func(m Message) {
			if m.From == "a" {
				fromA.Add(1)
			}
		})
		tr.Register("a", func(Message) {})
		tr.Register("c", func(Message) {})
		tr.DegradeLink("a", "b", 0, 0.3)
		tr.DegradeLink("c", "b", 0, 0.5)

		const n = 2000
		for i := 0; i < n; i++ {
			if err := tr.Send("a", "b", "k", i); err != nil {
				t.Fatal(err)
			}
			if interleave && i%3 == 0 {
				_ = tr.Send("c", "b", "k", i)
			}
		}
		// Drain: all non-lost messages must be delivered.
		deadline := time.Now().Add(5 * time.Second)
		for {
			sent, delivered, dropped := tr.Stats()
			if delivered == sent-dropped {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("drain timeout: stats %d/%d/%d", sent, delivered, dropped)
			}
			time.Sleep(time.Millisecond)
		}
		return int(fromA.Load())
	}

	quiet := run(false)
	noisy := run(true)
	if quiet != noisy {
		t.Fatalf("a→b deliveries depend on unrelated traffic: %d vs %d", quiet, noisy)
	}
	if quiet == 0 || quiet == 2000 {
		t.Fatalf("implausible loss outcome: %d of 2000 delivered", quiet)
	}
}

// TestLinkStateOutlivesTheEndpoint: a link's loss stream belongs to the pair
// of names, not to the registration — a node that crashes and re-registers
// mid-run loses exactly the messages it would have lost anyway. (The stepped
// clock delivers inside Send, so nothing is in flight across the gap.)
func TestLinkStateOutlivesTheEndpoint(t *testing.T) {
	run := func(reregister bool) []int {
		tr := NewTransport(clock.NewVirtual(clock.SimEpoch), nil)
		defer tr.Stop()
		var got []int
		h := func(m Message) { got = append(got, m.Payload.(int)) }
		tr.Register("b", h)
		tr.DegradeLink("a", "b", 0, 0.4)
		for i := 0; i < 400; i++ {
			if reregister && i == 200 {
				tr.Unregister("b")
				tr.Register("b", h)
			}
			if err := tr.Send("a", "b", "k", i); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	steady, restarted := run(false), run(true)
	if !slices.Equal(steady, restarted) {
		t.Fatalf("re-registering b changed which a→b messages survive:\n steady    %v\n restarted %v", steady, restarted)
	}
	if len(steady) < 150 || len(steady) > 330 {
		t.Fatalf("implausible loss outcome: %d of 400 delivered at 40%% loss", len(steady))
	}
}

// TestSchedulerStressRace mixes Send/Broadcast with concurrent link faults,
// churn of idle and of busy endpoints, handlers that send, readers of every
// counter, and a Stop while all of them are still running. They share one
// lock, which handlers run outside of: run under -race it checks that
// nothing is touched without it and that nothing deadlocks on it; the
// counter inequality holds because every accepted send is eventually
// delivered, dropped, or torn down.
func TestSchedulerStressRace(t *testing.T) {
	tr := NewTransport(clock.New(), NewNormalLatency(200*time.Microsecond, 100*time.Microsecond, 3))
	names := make([]string, 8)
	var received atomic.Int64
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		next := fmt.Sprintf("n%d", (i+1)%len(names))
		tr.Register(names[i], func(m Message) {
			received.Add(1)
			if m.Kind == "msg" { // forward once: delivery re-enters Send
				_ = tr.Send(m.To, next, "fwd", m.Payload)
			}
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Senders.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := names[rng.Intn(len(names))]
				if i%16 == 0 {
					tr.Broadcast(src, "burst", i)
					continue
				}
				dst := names[rng.Intn(len(names))]
				_ = tr.Send(src, dst, "msg", i) // ErrLinkDown etc. expected
			}
		}(g)
	}

	// Link chaos.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			switch rng.Intn(5) {
			case 0:
				tr.CutLink(a, b)
			case 1:
				tr.HealLink(a, b)
			case 2:
				tr.DegradeLink(a, b, time.Duration(rng.Intn(300))*time.Microsecond, 0.2)
			case 3:
				tr.DegradeLink(a, b, 0, 0)
			case 4:
				tr.HealAll()
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Endpoint churn: one endpoint nobody addresses, and one of the busy
	// ones, whose queued messages are dropped each time it goes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Register("flappy", func(Message) {})
			tr.Unregister(names[7])
			time.Sleep(200 * time.Microsecond)
			tr.Unregister("flappy")
			tr.Register(names[7], func(Message) { received.Add(1) })
			if i%8 == 0 {
				tr.Isolate(names[6])
			}
		}
	}()

	// Readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sent, delivered, dropped := tr.Stats()
			if delivered+dropped > sent {
				t.Errorf("impossible counters mid-run: sent=%d delivered=%d dropped=%d", sent, delivered, dropped)
				return
			}
			_ = tr.PendingCount() + int64(tr.LostCount()) + int64(tr.CutCount()+tr.DegradedCount()+len(tr.Endpoints()))
			time.Sleep(50 * time.Microsecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	tr.Stop() // against running senders, chaos and churn: all of them become no-ops
	before := received.Load()
	if n := len(tr.Endpoints()) + tr.CutCount() + tr.DegradedCount(); n != 0 {
		t.Errorf("%d endpoints, cuts and degradations survive Stop", n)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if before == 0 || received.Load() != before {
		t.Fatalf("handlers ran %d times before Stop returned and %d more after it", before, received.Load()-before)
	}

	sent, delivered, dropped := tr.Stats()
	if delivered+dropped > sent {
		t.Fatalf("impossible counters: sent=%d delivered=%d dropped=%d", sent, delivered, dropped)
	}
	if sent == 0 || delivered == 0 {
		t.Fatalf("stress produced no traffic: sent=%d delivered=%d", sent, delivered)
	}
	// Sends rejected post-Stop must keep failing.
	if err := tr.Send(names[0], names[1], "late", nil); err != ErrStopped {
		t.Fatalf("send after stop: err = %v, want ErrStopped", err)
	}
}

// TestSchedulerExactVirtualAdvanceDelivers advances the virtual clock in
// steps landing exactly on a message's ready time. The worker may be
// arming its timer concurrently with any step; because deadlines are
// absolute (clock.NewTimerAt), no interleaving can oversleep the due time.
func TestSchedulerExactVirtualAdvanceDelivers(t *testing.T) {
	for i := 0; i < 20; i++ {
		clk := clock.NewVirtual(time.Unix(0, 0))
		tr := NewTransport(clk, ConstantLatency{D: 10 * time.Millisecond})
		got := make(chan Message, 1)
		tr.Register("dst", func(m Message) { got <- m })
		if err := tr.Send("src", "dst", "k", i); err != nil {
			t.Fatal(err)
		}
		clk.Advance(5 * time.Millisecond)
		clk.Advance(5 * time.Millisecond) // lands exactly on the ready time
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: message due exactly at the advanced instant never delivered", i)
		}
		tr.Stop()
	}
}

// TestDeliveryIntoFullInbox pins the one behaviour that differs between the
// clocks: what a handler that would block does. Handlers forward into an
// engine's inbox (clock.Mailbox.Send). On the auto-advancing clock delivery
// runs to completion on the scheduler and cannot park, so a full inbox is a
// loud failure naming the delivery event; on the real clock the event's
// goroutine blocks, holding up delivery, until the inbox has room. No
// inbox in the tree fills (8192 slots against batches of tens); this is the
// contract for the day one does.
func TestDeliveryIntoFullInbox(t *testing.T) {
	forward := func(tr *Transport, clk clock.Clock) *clock.Mailbox[Message] {
		inbox := clock.NewMailbox[Message](clk, 1)
		tr.Register("dst", func(m Message) { inbox.Send(m, nil) })
		for i := 0; i < 2; i++ {
			if err := tr.Send("src", "dst", "k", i); err != nil {
				t.Fatal(err)
			}
		}
		return inbox
	}
	t.Run("auto-virtual panics", func(t *testing.T) {
		av := clock.NewAutoVirtual()
		clock.Register(av, "main") // never closed: the panic leaves the clock unusable
		tr := NewTransport(av, nil)
		forward(tr, av)
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "event net/shard-0") || !strings.Contains(msg, "would park") {
				t.Fatalf("panic = %q, want one naming the net/shard-0 event", msg)
			}
		}()
		av.Sleep(time.Millisecond) // main parks and schedules the delivery on its own goroutine
		t.Fatal("delivery into a full inbox did not panic")
	})
	t.Run("real blocks", func(t *testing.T) {
		clk := clock.New()
		tr := NewTransport(clk, nil)
		defer tr.Stop()
		inbox := forward(tr, clk)
		waitDelivered(t, tr, 1, 2*time.Second)
		time.Sleep(20 * time.Millisecond) // the second delivery is now stuck in Send
		if _, delivered, _ := tr.Stats(); delivered != 1 {
			t.Fatalf("delivered = %d with the inbox full, want 1", delivered)
		}
		if _, v, _ := clock.Await(clk, inbox); v.(Message).Payload.(int) != 0 {
			t.Fatalf("first message = %v, want payload 0", v)
		}
		waitDelivered(t, tr, 2, 2*time.Second)
		if _, v, _ := clock.Await(clk, inbox); v.(Message).Payload.(int) != 1 {
			t.Fatalf("second message = %v, want payload 1", v)
		}
	})
}

// TestWheelAllocatedByFirstDelayedMessage: a zero-latency fabric delivers
// everything through the ready list and never builds its 4096-bucket wheel;
// the first message that has to wait does.
func TestWheelAllocatedByFirstDelayedMessage(t *testing.T) {
	lat := NewAsymmetricLatency(ZeroLatency{})
	lat.SetLink("slow", "dst", ConstantLatency{D: time.Millisecond})
	tr := NewTransport(clock.New(), lat)
	defer tr.Stop()
	tr.Register("dst", func(Message) {})
	wheels := func() (n int) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if tr.wheel.slots != nil {
			n++
		}
		return n
	}
	for i := 0; i < 100; i++ {
		if err := tr.Send("fast", "dst", "k", i); err != nil {
			t.Fatal(err)
		}
	}
	waitDelivered(t, tr, 100, 2*time.Second)
	if n := wheels(); n != 0 {
		t.Fatalf("%d wheels allocated by zero-latency traffic, want 0", n)
	}
	if err := tr.Send("slow", "dst", "k", nil); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, tr, 101, 2*time.Second)
	if n := wheels(); n != 1 {
		t.Fatalf("%d wheels after one delayed message, want 1", n)
	}
}
