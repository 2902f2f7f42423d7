package network

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

// TestSchedulerDeterministicUnderVirtualClock: with the virtual clock and
// constant per-link latencies, the transport delivers every message exactly
// at its ready time, in (ready time, send order) sequence, reproducibly
// across runs. The delays straddle the edges of the former timing wheel (one
// 100µs tick, a 4096-tick horizon of 409.6ms) and reach far beyond it.
// Rounds sent 50µs and 1ms after the first tie ready times across links, and
// the test's actor ("main") sends them ahead of the delivery event
// ("net/shard-0") at that instant, so messages due at once share a batch
// with ones that waited. Every message is sent back from inside the handler
// that receives it, on a link of the same delay.
func TestSchedulerDeterministicUnderVirtualClock(t *testing.T) {
	delays := []time.Duration{
		0, 50 * time.Microsecond, 100 * time.Microsecond,
		409 * time.Millisecond, 410 * time.Millisecond, 411 * time.Millisecond,
		time.Hour,
	}
	type delivery struct {
		link string
		at   time.Duration // since the epoch
		seq  int           // global send order
	}
	run := func() []delivery {
		clk := clock.NewAutoVirtual()
		lat := linkLatency{
			{"a", "dst"}: constantLatency{30 * time.Millisecond},
			{"b", "dst"}: constantLatency{10 * time.Millisecond},
			{"c", "dst"}: constantLatency{20 * time.Millisecond},
		}
		delay := map[string]time.Duration{"a": 30 * time.Millisecond, "b": 10 * time.Millisecond, "c": 20 * time.Millisecond}
		for _, d := range delays {
			src, echo := "s-"+d.String(), "echo-"+d.String()
			lat[linkKey{src, "dst"}] = constantLatency{d}
			lat[linkKey{"dst", echo}] = constantLatency{d}
			delay[src], delay[echo] = d, d
		}
		tr := NewTransport(clk, lat)
		defer tr.Stop()
		h := clock.Register(clk, "main")
		defer h.Close()

		var log []delivery // appended on the clock's event loop
		seq := 0
		kinds := map[int]string{}     // by send order
		sentAt := map[int]time.Time{} // by send order
		send := func(from, to, kind string) {
			seq++
			kinds[seq], sentAt[seq] = kind, clk.Now()
			if err := tr.Send(from, to, kind, seq); err != nil {
				t.Fatal(err)
			}
		}
		record := func(m Message, link string) {
			n := m.Payload.(int)
			if want := sentAt[n].Add(delay[link]); !clk.Now().Equal(want) {
				t.Errorf("%s:%s delivered at %v, want its ready time %v", link, kinds[n], clk.Now(), want)
			}
			log = append(log, delivery{link + ":" + kinds[n], clk.Now().Sub(clock.SimEpoch), n})
		}
		tr.Register("dst", func(m Message) {
			record(m, m.From)
			if strings.HasPrefix(m.From, "s-") {
				send("dst", "echo-"+strings.TrimPrefix(m.From, "s-"), kinds[m.Payload.(int)])
			}
		})
		for _, d := range delays {
			echo := "echo-" + d.String()
			tr.Register(echo, func(m Message) { record(m, echo) })
		}
		for round, at := range []time.Duration{0, 50 * time.Microsecond, time.Millisecond} {
			clk.Sleep(at - clk.Now().Sub(clock.SimEpoch))
			for i := 0; i < 3; i++ {
				kind := fmt.Sprintf("r%dm%d", round, i)
				for _, src := range []string{"a", "b", "c"} {
					send(src, "dst", kind)
				}
				for _, d := range delays {
					send("s-"+d.String(), "dst", kind)
				}
			}
		}
		clk.Sleep(3 * time.Hour)
		if want := 3 * 3 * (3 + 2*len(delays)); len(log) != want || seq != want {
			t.Fatalf("sent %d and delivered %d messages, want %d", seq, len(log), want)
		}
		return log
	}

	// The first round on the a, b and c links, in ready-time then send order.
	want := []string{
		"b:r0m0", "b:r0m1", "b:r0m2", // 10ms link, enqueue order
		"c:r0m0", "c:r0m1", "c:r0m2", // 20ms link
		"a:r0m0", "a:r0m1", "a:r0m2", // 30ms link
	}
	var first []delivery
	for attempt := 0; attempt < 3; attempt++ {
		got := run()
		if attempt == 0 {
			first = got
		} else if !slices.Equal(got, first) {
			t.Fatalf("attempt %d delivered in a different order:\n got %v\nwant %v", attempt, got, first)
		}
	}
	var abc []string
	for i, d := range first {
		if i > 0 {
			prev := first[i-1]
			if d.at < prev.at || (d.at == prev.at && d.seq < prev.seq) {
				t.Fatalf("delivery %d (%+v) precedes %+v in (ready time, send order)", i, prev, d)
			}
		}
		if link, kind, _ := strings.Cut(d.link, ":"); len(link) == 1 && strings.HasPrefix(kind, "r0") {
			abc = append(abc, d.link)
		}
	}
	if !slices.Equal(abc, want) {
		t.Fatalf("a, b, c first round = %v, want %v", abc, want)
	}
}

// TestPerLinkFIFOUnderMixedLatencies: per-directed-link FIFO must survive
// per-message random latency draws and concurrent senders — the ready-time
// clamp makes later sends on a link never overtake earlier ones.
func TestPerLinkFIFOUnderMixedLatencies(t *testing.T) {
	clk := clocktest.New(t)
	tr := NewTransport(clk, NewNormalLatency(300*time.Microsecond, 300*time.Microsecond, 7))
	defer tr.Stop()

	const senders = 4
	const perSender = 150
	last := map[string]int{}
	var violations []string
	total := 0
	tr.Register("dst", func(m Message) {
		seq := m.Payload.(int)
		if prev, ok := last[m.From]; ok && seq <= prev {
			violations = append(violations, fmt.Sprintf("%s: %d after %d", m.From, seq, prev))
		}
		last[m.From] = seq
		total++
	})

	names := make([]string, senders)
	for s := range names {
		names[s] = fmt.Sprintf("src%d", s)
	}
	// The senders interleave: each sleeps a different step between sends,
	// so deliveries of earlier sends land among later ones.
	next := make([]int, senders) // each sender's next send
	clocktest.Steps(t, clk, 10*time.Second, "all sends", names, func(s int) (time.Duration, bool) {
		i := next[s]
		if i == perSender {
			return 0, true
		}
		if err := tr.Send(names[s], "dst", "seq", i); err != nil {
			t.Error(err)
			return 0, true
		}
		next[s]++
		return time.Duration(50*(s+1)) * time.Microsecond, false
	})
	clocktest.Until(t, clk, 10*time.Second, "all deliveries", func() bool { return total == senders*perSender })
	if len(violations) > 0 {
		t.Fatalf("per-link FIFO violated %d times, e.g. %s", len(violations), violations[0])
	}
}

// TestQueueOverflowDropAccounting: a full endpoint queue rejects the send
// and counts the drop, without disturbing sent/lost accounting.
func TestQueueOverflowDropAccounting(t *testing.T) {
	// One-hour latency parks every message in the scheduler's heap.
	tr := NewTransport(clocktest.New(t), constantLatency{time.Hour})
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
		clk := clock.NewAutoVirtual()
		h := clock.Register(clk, "test")
		defer h.Close()
		tr := NewTransport(clk, nil)
		defer tr.Stop()
		fromA := 0
		tr.Register("b", func(m Message) {
			if m.From == "a" {
				fromA++
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
		clocktest.Until(t, clk, 5*time.Second, "drain", func() bool {
			sent, delivered, dropped := tr.Stats()
			return delivered == sent-dropped
		})
		return fromA
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
// mid-run loses exactly the messages it would have lost anyway. (The test
// sleeps out the deliveries before the gap, so nothing is in flight across
// it.)
func TestLinkStateOutlivesTheEndpoint(t *testing.T) {
	run := func(reregister bool) []int {
		clk := clock.NewAutoVirtual()
		tr := NewTransport(clk, nil)
		defer tr.Stop()
		var got []int
		h := func(m Message) { got = append(got, m.Payload.(int)) }
		tr.Register("b", h)
		tr.DegradeLink("a", "b", 0, 0.4)
		for i := 0; i < 400; i++ {
			if i == 200 {
				clk.Sleep(time.Millisecond)
			}
			if reregister && i == 200 {
				tr.Unregister("b")
				tr.Register("b", h)
			}
			if err := tr.Send("a", "b", "k", i); err != nil {
				t.Fatal(err)
			}
		}
		clk.Sleep(time.Millisecond)
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

// TestSchedulerStressRace mixes Send/Broadcast with link faults (cuts are
// full-loss degradations), churn of idle and of busy endpoints, handlers
// that send, readers of every counter, and a Stop while all of them are
// still running — each an event of its own, interleaved by their waits,
// with deliveries run in between. Run under -race it checks that the
// transport's state is only touched under the token, and that nothing
// deadlocks; the counter inequality holds because every accepted send is
// eventually delivered, dropped, or torn down.
func TestSchedulerStressRace(t *testing.T) {
	clk := clocktest.New(t)
	tr := NewTransport(clk, NewNormalLatency(200*time.Microsecond, 100*time.Microsecond, 3))
	names := make([]string, 8)
	received := 0
	for i := range names {
		self, next := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%len(names))
		names[i] = self
		tr.Register(self, func(m Message) {
			received++
			if n, ok := m.Payload.(int); ok { // forward once: delivery re-enters Send
				_ = tr.Send(self, next, "fwd", float64(n))
			}
		})
	}
	// Each role is an event doing one step of its loop per run and arming
	// itself for the step's wait; stopped ends every loop at its next step.
	stopped := false
	roles := []string{"chaos", "churn", "reader", "sender-0", "sender-1", "sender-2", "sender-3"}
	running := len(roles)
	for r, role := range roles {
		rng := rand.New(rand.NewSource(int64(r)))
		i, flapping := 0, false
		step := func() (wait time.Duration, done bool) {
			switch role {
			case "chaos":
				a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
				switch rng.Intn(5) {
				case 0:
					tr.DegradeLink(a, b, 0, 1)
				case 1:
					tr.DegradeLink(a, b, 0, 0)
				case 2:
					tr.DegradeLink(a, b, time.Duration(rng.Intn(300))*time.Microsecond, 0.2)
				case 3:
					tr.DegradeLink(a, b, 0, 1.5) // clamped to a cut
				case 4:
					tr.HealAll()
				}
				return 100 * time.Microsecond, false
			case "churn":
				// One endpoint nobody addresses, and one of the busy ones,
				// whose queued messages are dropped each time it goes.
				if flapping = !flapping; flapping {
					tr.Register("flappy", func(Message) {})
					tr.Unregister(names[7])
					return 200 * time.Microsecond, false
				}
				tr.Unregister("flappy")
				tr.Register(names[7], func(Message) { received++ })
				if i%8 == 0 {
					for _, other := range tr.Endpoints() {
						tr.DegradeLink(names[6], other, 0, 1)
						tr.DegradeLink(other, names[6], 0, 1)
					}
				}
				return 0, false
			case "reader":
				sent, delivered, dropped := tr.Stats()
				if delivered+dropped > sent {
					t.Errorf("impossible counters mid-run: sent=%d delivered=%d dropped=%d", sent, delivered, dropped)
					return 0, true
				}
				_ = tr.PendingCount() + int64(tr.LostCount()) + int64(tr.DegradedCount()+len(tr.Endpoints()))
				return 200 * time.Microsecond, false
			default:
				src := names[rng.Intn(len(names))]
				if i%16 == 0 {
					tr.Broadcast(src, "burst", "burst")
				} else {
					_ = tr.Send(src, names[rng.Intn(len(names))], "msg", i) // ErrUnknownEndpoint etc. expected
				}
				return time.Duration(50+rng.Intn(100)) * time.Microsecond, false
			}
		}
		var ev *clock.Event
		ev = clock.NewEvent(clk, role, func() {
			for {
				if stopped && !flapping {
					running--
					return
				}
				wait, done := step()
				if done {
					running--
					return
				}
				if !flapping {
					i++
				}
				if wait > 0 {
					ev.After(wait)
					return
				}
			}
		})
		ev.Trigger()
	}

	clk.Sleep(300 * time.Millisecond)
	tr.Stop() // against running senders, chaos and churn: all of them become no-ops
	before := received
	if n := len(tr.Endpoints()) + tr.DegradedCount(); n != 0 {
		t.Errorf("%d endpoints and degradations survive Stop", n)
	}
	clk.Sleep(10 * time.Millisecond)
	stopped = true
	clocktest.Until(t, clk, time.Second, "every role to stop", func() bool { return running == 0 })
	if before == 0 || received != before {
		t.Fatalf("handlers ran %d times before Stop returned and %d more after it", before, received-before)
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
// steps landing exactly on a message's ready time. The delivery deadline is
// absolute (Event.At), so the step that reaches it delivers the message.
func TestSchedulerExactVirtualAdvanceDelivers(t *testing.T) {
	for i := 0; i < 20; i++ {
		clk := clock.NewAutoVirtual()
		tr := NewTransport(clk, constantLatency{10 * time.Millisecond})
		got := make(chan Message, 1)
		tr.Register("dst", func(m Message) { got <- m })
		if err := tr.Send("src", "dst", "k", i); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(5 * time.Millisecond)
		clk.Sleep(5 * time.Millisecond) // lands exactly on the ready time
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: message due exactly at the advanced instant never delivered", i)
		}
		tr.Stop()
	}
}

// TestZeroLatencyTrafficBypassesTheHeap: a zero-latency fabric delivers
// everything through the ready list and never grows the heap of messages not
// yet due; a delayed message waits in the heap until its ready time.
func TestZeroLatencyTrafficBypassesTheHeap(t *testing.T) {
	lat := linkLatency{{"slow", "dst"}: constantLatency{time.Millisecond}}
	clk := clock.NewAutoVirtual()
	tr := NewTransport(clk, lat)
	defer tr.Stop()
	tr.Register("dst", func(Message) {})
	waiting := func() (n, capacity int) {
		return len(tr.queue.later), cap(tr.queue.later)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Send("fast", "dst", "k", i); err != nil {
			t.Fatal(err)
		}
	}
	waitDelivered(t, clk, tr, 100, 2*time.Second)
	if _, c := waiting(); c != 0 {
		t.Fatalf("zero-latency traffic grew the heap to capacity %d, want 0", c)
	}
	if err := tr.Send("slow", "dst", "k", nil); err != nil {
		t.Fatal(err)
	}
	if n, _ := waiting(); n != 1 {
		t.Fatalf("%d messages in the heap after one delayed send, want 1", n)
	}
	clk.Sleep(time.Millisecond)
	waitDelivered(t, clk, tr, 101, 2*time.Second)
	if n, _ := waiting(); n != 0 {
		t.Fatalf("%d messages left in the heap after their ready time, want 0", n)
	}
}

// TestQueueWakeDecision pins the wakeAt protocol of enqueue (delivery.go):
// an item triggers the delivery event exactly when the event would
// otherwise first run after the item's ready time, and the trigger marks
// the run as on its way. Items due at enqueue time take the ready list,
// the rest the heap.
func TestQueueWakeDecision(t *testing.T) {
	const now = 100
	for _, c := range []struct {
		name               string
		wakeAt, readyNanos int64
		wantWake           bool
		wantWakeAt         int64
		wantReady          bool
	}{
		{"idle, due now", math.MaxInt64, now, true, math.MinInt64, true},
		{"idle, due later", math.MaxInt64, 200, true, math.MinInt64, false},
		{"armed before the item", 150, 200, false, 150, false},
		{"armed at the item's time", 200, 200, false, 200, false},
		{"armed after the item", 300, 200, true, math.MinInt64, false},
		{"run on its way", math.MinInt64, now, false, math.MinInt64, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := queue{wakeAt: c.wakeAt}
			if got := q.enqueue(&item{readyNanos: c.readyNanos}, now); got != c.wantWake {
				t.Errorf("needWake = %v, want %v", got, c.wantWake)
			}
			if q.wakeAt != c.wantWakeAt {
				t.Errorf("wakeAt = %d, want %d", q.wakeAt, c.wantWakeAt)
			}
			if inReady := len(q.ready) == 1; inReady != c.wantReady || len(q.ready)+len(q.later) != 1 {
				t.Errorf("ready %d, heap %d: want the item in the ready list = %v", len(q.ready), len(q.later), c.wantReady)
			}
		})
	}
}

// TestQueueCollectPopsDueItems: collect takes the ready list and every heap
// item due at or before now — one due exactly now included — and leaves the
// rest; with nothing due it reports the earliest ready time and arms wakeAt
// at it.
func TestQueueCollectPopsDueItems(t *testing.T) {
	q := queue{wakeAt: math.MaxInt64}
	for _, ready := range []int64{101, 100, 99, 50} {
		q.enqueue(&item{readyNanos: ready}, 50)
	}
	got := func(batch []*item) (rs []int64) {
		for _, it := range batch {
			rs = append(rs, it.readyNanos)
		}
		return rs
	}
	batch, next := q.collect(100, nil)
	if fmt.Sprint(got(batch)) != "[50 99 100]" || next != math.MaxInt64 || q.wakeAt != math.MinInt64 {
		t.Fatalf("collect(100) = %v, next %d, wakeAt %d; want [50 99 100], MaxInt64, MinInt64",
			got(batch), next, q.wakeAt)
	}
	batch, next = q.collect(100, batch[:0])
	if len(batch) != 0 || next != 101 || q.wakeAt != 101 {
		t.Fatalf("second collect(100) = %v, next %d, wakeAt %d; want [], 101, 101", got(batch), next, q.wakeAt)
	}
	batch, next = q.collect(101, batch[:0])
	if fmt.Sprint(got(batch)) != "[101]" || len(q.later) != 0 {
		t.Fatalf("collect(101) = %v with %d left in the heap, want [101] and none", got(batch), len(q.later))
	}
}

// TestDeliveryIntoFullInbox pins what a handler that would block does.
// Delivery runs to completion on the scheduler and cannot park, so a
// handler that waits (here a Sleep; an engine's inbox is an unbounded
// clock.Loop, which never does) is a loud failure naming the delivery
// event.
func TestDeliveryIntoFullInbox(t *testing.T) {
	av := clock.NewAutoVirtual()
	clock.Register(av, "main") // never closed: the panic leaves the clock unusable
	tr := NewTransport(av, nil)
	tr.Register("dst", func(Message) { av.Sleep(time.Millisecond) })
	for i := 0; i < 2; i++ {
		if err := tr.Send("src", "dst", "k", i); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "event net/shard-0") || !strings.Contains(msg, "would park") {
			t.Fatalf("panic = %q, want one naming the net/shard-0 event", msg)
		}
	}()
	av.Sleep(time.Millisecond) // main parks and schedules the delivery on its own goroutine
	t.Fatal("a delivery that waits did not panic")
}
