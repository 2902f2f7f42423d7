package network

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/trace"
)

// TestTransportSteadyStateAllocsNothing pins the zero-allocation send path:
// once the queue's buffers and the link tables have grown, SendPort, Send
// and Broadcast allocate nothing per message, and neither does delivering
// them, on a zero-latency fabric (the ready list), on a netem fabric (the
// heap) and over a degraded, lossy link (the loss draw).
func TestTransportSteadyStateAllocsNothing(t *testing.T) {
	for _, c := range []struct {
		name    string
		latency LatencyModel
		degrade bool
	}{
		{"zero-latency", nil, false},
		{"netem", NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, 5), false},
		{"degraded-lossy", nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := clocktest.New(t)
			tr := NewTransport(clk, c.latency)
			t.Cleanup(tr.Stop)
			delivered := 0
			for _, name := range []string{"a", "b", "c", "d"} {
				tr.Register(name, func(Message) { delivered++ })
			}
			if c.degrade {
				tr.DegradeLink("a", "b", time.Millisecond, 0.3)
			}
			a, b := tr.Port("a"), tr.Port("b")
			payload := &benchPayload{seq: 1}
			round := func() {
				for i := 0; i < 8; i++ {
					if err := tr.SendPort(a, b, "k", payload); err != nil {
						t.Fatal(err)
					}
					if err := tr.Send("a", "b", "k", payload); err != nil {
						t.Fatal(err)
					}
					tr.Broadcast("a", "k", payload)
				}
				clk.Sleep(50 * time.Millisecond) // every copy is due by now
			}
			for i := 0; i < 16; i++ {
				round() // grow the buffers
			}
			if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
				t.Fatalf("%.2f allocations per round of 40 sends, want 0", allocs)
			}
			if sent, _, dropped := tr.Stats(); delivered == 0 || uint64(delivered) != sent-dropped {
				t.Fatalf("delivered %d of %d sent (%d dropped)", delivered, sent, dropped)
			}
		})
	}
}

// TestTransportSendPortMatchesSend: addressing by port is the same fabric
// as addressing by name. A run that mixes SendPort and Send, on a netem
// fabric with a lossy link and a tracer attached, delivers the same
// messages at the same instants, and records the same net spans, as a run
// that only uses Send.
func TestTransportSendPortMatchesSend(t *testing.T) {
	type delivery struct {
		to, from string
		seq      int
		at       time.Duration
	}
	run := func(byPort bool) ([]delivery, string) {
		clk := clock.NewAutoVirtual()
		h := clock.Register(clk, "main")
		defer h.Close()
		tr := NewTransport(clk, NewNormalLatency(time.Millisecond, 400*time.Microsecond, 9))
		defer tr.Stop()
		tracer := trace.New(trace.Options{SampleEvery: 3})
		tr.SetTracer(tracer, "test")
		names := []string{"n0", "n1", "n2", "n3"}
		var log []delivery
		for _, name := range names {
			tr.Register(name, func(m Message) {
				log = append(log, delivery{name, m.From, m.Payload.(int), clk.Now().Sub(clock.SimEpoch)})
			})
		}
		tr.DegradeLink("n0", "n1", 200*time.Microsecond, 0.25)
		ports := tr.Ports(names)
		for i := 0; i < 300; i++ {
			from, to := i%len(names), (i*7+1)%len(names)
			switch {
			case i%5 == 0:
				tr.Broadcast(names[from], "bcast", i)
			case byPort && i%2 == 0:
				_ = tr.SendPort(ports[from], ports[to], "msg", i)
			default:
				_ = tr.Send(names[from], names[to], "msg", i)
			}
			if i%10 == 9 {
				clk.Sleep(300 * time.Microsecond)
			}
		}
		clk.Sleep(time.Second)
		var spans bytes.Buffer
		if err := tracer.WriteJSON(&spans); err != nil {
			t.Fatal(err)
		}
		return log, spans.String()
	}
	byName, nameSpans := run(false)
	mixed, mixedSpans := run(true)
	if len(byName) < 350 || !slices.Equal(byName, mixed) {
		t.Fatalf("mixed SendPort/Send delivered %d messages, all-Send %d; the logs differ or are too short", len(mixed), len(byName))
	}
	if nameSpans != mixedSpans || !bytes.Contains([]byte(nameSpans), []byte(`"cat":"net"`)) {
		t.Fatalf("net spans differ between mixed and all-Send runs (or none were sampled):\n%s\n---\n%s", nameSpans, mixedSpans)
	}
}

// TestTransportReregisteredPortSkipsOldQueue: a message queued to a
// registration that goes away is dropped, even when the name registers
// again before the message is due and the sender holds the port from
// before; messages sent after the re-registration arrive.
func TestTransportReregisteredPortSkipsOldQueue(t *testing.T) {
	tr, clk := newTestTransport(t, constantLatency{10 * time.Millisecond})
	var old, fresh []int
	tr.Register("b", func(m Message) { old = append(old, m.Payload.(int)) })
	a, b := tr.Port("a"), tr.Port("b")
	for i := 0; i < 3; i++ {
		if err := tr.SendPort(a, b, "k", i); err != nil {
			t.Fatal(err)
		}
	}
	tr.Unregister("b")
	if err := tr.SendPort(a, b, "k", -1); err == nil {
		t.Fatal("SendPort to an unregistered port succeeded")
	}
	tr.Register("b", func(m Message) { fresh = append(fresh, m.Payload.(int)) })
	if tr.Port("b") != b {
		t.Fatal("re-registering b interned a second port")
	}
	if err := tr.SendPort(a, b, "k", 3); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(time.Second)
	if len(old) != 0 || !slices.Equal(fresh, []int{3}) {
		t.Fatalf("old handler got %v and new one %v; want nothing and [3]", old, fresh)
	}
	if n := tr.PendingCount(); n != 0 {
		t.Fatalf("%d messages still pending", n)
	}
}

// TestTransportUnregisteredSenderKeepsFIFO: a sender that never registers
// still gets a link of its own, whose ready-time clamp keeps its messages
// in send order under random per-message latency.
func TestTransportUnregisteredSenderKeepsFIFO(t *testing.T) {
	tr, clk := newTestTransport(t, NewNormalLatency(500*time.Microsecond, 400*time.Microsecond, 17))
	var order []int
	tr.Register("dst", func(m Message) {
		if m.From != "ghost" {
			t.Errorf("message from %q, want ghost", m.From)
		}
		order = append(order, m.Payload.(int))
	})
	ghost, dst := tr.Port("ghost"), tr.Port("dst")
	for i := 0; i < 200; i++ {
		if err := tr.SendPort(ghost, dst, "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	clk.Sleep(time.Second)
	if len(order) != 200 {
		t.Fatalf("delivered %d of 200", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d (FIFO violated on an unregistered sender's link)", i, v)
		}
	}
	if slices.Contains(tr.Endpoints(), "ghost") {
		t.Fatal("sending registered the sender")
	}
}

// TestTransportDegradedCount: the count follows each link into and out of
// degradation; a zero degradation restores a link, re-degrading one does
// not count it twice, restoring a link that was never degraded changes
// nothing, and HealAll and Stop leave none. A stopped transport ignores
// DegradeLink.
func TestTransportDegradedCount(t *testing.T) {
	tr, clk := newTestTransport(t, nil)
	tr.Register("b", func(Message) {})
	check := func(step string, want int) {
		t.Helper()
		if got := tr.DegradedCount(); got != want {
			t.Fatalf("%s: DegradedCount = %d, want %d", step, got, want)
		}
	}
	tr.DegradeLink("a", "b", time.Millisecond, 0)
	tr.DegradeLink("a", "c", 0, 0.5)
	check("two degraded links", 2)
	tr.DegradeLink("a", "b", 2*time.Millisecond, 0.1)
	check("a→b degraded again", 2)
	tr.DegradeLink("a", "b", 0, 0)
	check("a→b restored", 1)
	tr.DegradeLink("a", "b", -time.Millisecond, 0)
	tr.DegradeLink("b", "a", 0, 0)
	tr.DegradeLink("x", "y", 0, 0)
	check("restoring pristine links", 1)
	// A restored link delivers at once and loses nothing.
	got := 0
	tr.Register("b", func(Message) { got++ })
	for i := 0; i < 50; i++ {
		_ = tr.Send("a", "b", "k", nil)
	}
	clk.Sleep(time.Millisecond)
	if got != 50 || tr.LostCount() != 0 {
		t.Fatalf("restored link delivered %d of 50 and lost %d", got, tr.LostCount())
	}
	tr.HealAll()
	check("HealAll", 0)
	tr.DegradeLink("a", "b", 0, 1)
	check("a→b cut", 1)
	tr.Stop()
	check("Stop", 0)
	tr.DegradeLink("a", "b", 0, 1)
	check("DegradeLink after Stop", 0)
}

// TestTransportPortsInternOnce: Port and Ports return one port per name,
// whether the name sends, registers, or neither yet, and interning a name
// does not register it.
func TestTransportPortsInternOnce(t *testing.T) {
	tr, _ := newTestTransport(t, nil)
	ports := tr.Ports([]string{"x", "y", "x"})
	tr.Register("y", func(Message) {})
	_ = tr.Send("z", "y", "k", nil)
	if ports[0] != ports[2] || ports[0] == ports[1] || tr.Port("y") != ports[1] || tr.Port("z") == tr.Port("x") {
		t.Fatal("a name interned to more than one port, or two names to one")
	}
	if got := fmt.Sprint(tr.Endpoints()); got != "[y]" {
		t.Fatalf("endpoints %s, want only the registered [y]", got)
	}
}
