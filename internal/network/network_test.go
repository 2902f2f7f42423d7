package network

import (
	"math"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

// constantLatency delays every message by a fixed duration.
type constantLatency struct{ d time.Duration }

func (c constantLatency) Delay(_, _ string) time.Duration { return c.d }

// latencyFunc computes each link's delay from its names.
type latencyFunc func(src, dst string) time.Duration

func (f latencyFunc) Delay(src, dst string) time.Duration { return f(src, dst) }

// measureLatency samples m n times and returns the mean and standard
// deviation of the draws.
func measureLatency(m LatencyModel, n int) (mean, std time.Duration) {
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		samples[i] = float64(m.Delay("a", "b"))
		sum += samples[i]
	}
	mu := sum / float64(n)
	var sq float64
	for _, s := range samples {
		sq += (s - mu) * (s - mu)
	}
	return time.Duration(mu), time.Duration(math.Sqrt(sq / float64(n)))
}

func TestZeroLatency(t *testing.T) {
	if d := (ZeroLatency{}).Delay("a", "b"); d != 0 {
		t.Fatalf("ZeroLatency delay = %v, want 0", d)
	}
}

// TestNormalLatencyDistribution draws from the paper's netem parameters
// (§5.8.1: mu = 12 ms, sigma = 2 ms).
func TestNormalLatencyDistribution(t *testing.T) {
	mean, std := measureLatency(NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, 42), 20000)
	if mean < 11*time.Millisecond || mean > 13*time.Millisecond {
		t.Fatalf("mean = %v, want ~12ms", mean)
	}
	if std < 1500*time.Microsecond || std > 2500*time.Microsecond {
		t.Fatalf("std = %v, want ~2ms", std)
	}
}

func TestNormalLatencyNeverNegative(t *testing.T) {
	// sigma larger than mu forces frequent negative draws before truncation.
	m := NewNormalLatency(time.Millisecond, 10*time.Millisecond, 1)
	for i := 0; i < 10000; i++ {
		if d := m.Delay("a", "b"); d < 0 {
			t.Fatalf("negative delay %v", d)
		}
	}
}

func TestNormalLatencyDeterministicPerSeed(t *testing.T) {
	a := NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, 7)
	b := NewNormalLatency(12*time.Millisecond, 2*time.Millisecond, 7)
	for i := 0; i < 100; i++ {
		if a.Delay("x", "y") != b.Delay("x", "y") {
			t.Fatal("same seed must produce same delay sequence")
		}
	}
}

// newTestTransport builds a transport on a fresh virtual clock with the test
// registered on it, stopped when the test ends.
func newTestTransport(t *testing.T, lat LatencyModel) (*Transport, *clock.AutoVirtual) {
	t.Helper()
	clk := clocktest.New(t)
	tr := NewTransport(clk, lat)
	t.Cleanup(tr.Stop)
	return tr, clk
}

func TestTransportDelivers(t *testing.T) {
	tr, clk := newTestTransport(t, nil)
	var got []Message
	tr.Register("b", func(m Message) { got = append(got, m) })

	if err := tr.Send("a", "b", "ping", 42); err != nil {
		t.Fatal(err)
	}
	clocktest.Until(t, clk, time.Second, "message delivered", func() bool { return len(got) > 0 })
	if m := got[0]; m.From != "a" || m.Payload != 42 {
		t.Fatalf("unexpected message %+v", m)
	}
}

func TestTransportUnknownEndpoint(t *testing.T) {
	tr, _ := newTestTransport(t, nil)
	err := tr.Send("a", "nope", "x", nil)
	if err == nil {
		t.Fatal("expected error for unknown endpoint")
	}
}

func TestTransportFIFOPerLink(t *testing.T) {
	tr, clk := newTestTransport(t, nil)
	var order []int
	tr.Register("dst", func(m Message) { order = append(order, m.Payload.(int)) })
	for i := 0; i < 100; i++ {
		if err := tr.Send("src", "dst", "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	clocktest.Until(t, clk, 2*time.Second, "all 100 messages delivered", func() bool { return len(order) == 100 })
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestTransportBroadcast(t *testing.T) {
	tr, clk := newTestTransport(t, nil)
	recv := map[string]int{}
	for _, name := range []string{"n1", "n2", "n3"} {
		tr.Register(name, func(Message) { recv[name]++ })
	}
	tr.Register("sender", func(Message) { t.Error("sender must not receive its own broadcast") })

	if n := tr.Broadcast("sender", "hello", nil); n != 3 {
		t.Fatalf("broadcast reached %d endpoints, want 3", n)
	}
	clocktest.Until(t, clk, 2*time.Second, "broadcast delivered", func() bool { return len(recv) == 3 })
	clk.Sleep(time.Second) // room for a duplicate to show
	for _, name := range []string{"n1", "n2", "n3"} {
		if recv[name] != 1 {
			t.Fatalf("%s received %d messages, want 1", name, recv[name])
		}
	}
}

// TestTransportCutAndHealLink: a full-loss degradation cuts one directed
// link — the send succeeds and the message vanishes — and a zero
// degradation heals it.
func TestTransportCutAndHealLink(t *testing.T) {
	tr, clk := newTestTransport(t, nil)
	got := 0
	tr.Register("b", func(Message) { got++ })

	tr.DegradeLink("a", "b", 0, 1)
	if err := tr.Send("a", "b", "x", nil); err != nil {
		t.Fatalf("send on a cut link: %v (loss must be silent)", err)
	}
	tr.DegradeLink("a", "b", 0, 0)
	if err := tr.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	clocktest.Until(t, clk, time.Second, "message delivered after heal", func() bool { return got == 1 })
	clk.Sleep(time.Second) // room for the cut message to show
	if got != 1 || tr.LostCount() != 1 {
		t.Fatalf("delivered %d, lost %d; want the healed message delivered and the cut one lost", got, tr.LostCount())
	}
}

// TestTransportIsolate: full-loss degradation in both directions isolates
// an endpoint; neither what it sends nor what is sent to it arrives.
func TestTransportIsolate(t *testing.T) {
	tr, clk := newTestTransport(t, nil)
	got := map[string]int{}
	for _, name := range []string{"a", "b"} {
		tr.Register(name, func(Message) { got[name]++ })
	}
	tr.DegradeLink("a", "b", 0, 1)
	tr.DegradeLink("b", "a", 0, 1)
	_ = tr.Send("a", "b", "x", nil)
	_ = tr.Send("b", "a", "x", nil)
	clk.Sleep(time.Second)
	if got["a"] != 0 || got["b"] != 0 || tr.LostCount() != 2 {
		t.Fatalf("isolated endpoint exchanged messages: received %v, lost %d", got, tr.LostCount())
	}
}

func TestTransportLatencyDelaysDelivery(t *testing.T) {
	tr, clk := newTestTransport(t, constantLatency{50 * time.Millisecond})
	var at time.Time
	tr.Register("b", func(Message) { at = clk.Now() })
	start := clk.Now()
	if err := tr.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	clocktest.Until(t, clk, time.Second, "message delivered", func() bool { return !at.IsZero() })
	if d := at.Sub(start); d != 50*time.Millisecond {
		t.Fatalf("delivered after %v, want the link's 50ms", d)
	}
}

func TestTransportStopRejectsSends(t *testing.T) {
	tr := NewTransport(clocktest.New(t), nil)
	tr.Register("b", func(Message) {})
	tr.Stop()
	if err := tr.Send("a", "b", "x", nil); err == nil {
		t.Fatal("expected ErrStopped")
	}
	// Stop must be idempotent.
	tr.Stop()
}

func TestTransportUnregister(t *testing.T) {
	tr, _ := newTestTransport(t, nil)
	tr.Register("b", func(Message) {})
	tr.Unregister("b")
	if err := tr.Send("a", "b", "x", nil); err == nil {
		t.Fatal("expected error after unregister")
	}
}

func TestTransportStats(t *testing.T) {
	tr, clk := newTestTransport(t, nil)
	got := 0
	tr.Register("b", func(Message) { got++ })
	_ = tr.Send("a", "b", "x", nil)
	_ = tr.Send("a", "b", "x", nil)
	clocktest.Until(t, clk, 2*time.Second, "two deliveries", func() bool { return got == 2 })
	// drain counts a delivery after its handler returns; Stop waits for
	// drain, so the counts are final once it returns.
	tr.Stop()
	sent, delivered, dropped := tr.Stats()
	if sent != 2 || delivered != 2 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 2/2/0", sent, delivered, dropped)
	}
}

func TestTransportEndpoints(t *testing.T) {
	tr, _ := newTestTransport(t, nil)
	tr.Register("x", func(Message) {})
	tr.Register("y", func(Message) {})
	if got := len(tr.Endpoints()); got != 2 {
		t.Fatalf("endpoints = %d, want 2", got)
	}
}

func TestTransportFIFOUnderRandomLatency(t *testing.T) {
	// Per-link FIFO must hold even when each message draws a random delay:
	// the delivery queue is serial per endpoint.
	tr, clk := newTestTransport(t, NewNormalLatency(500*time.Microsecond, 200*time.Microsecond, 99))
	var order []int
	tr.Register("dst", func(m Message) { order = append(order, m.Payload.(int)) })
	for i := 0; i < 50; i++ {
		if err := tr.Send("src", "dst", "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	clocktest.Until(t, clk, 5*time.Second, "all 50 messages delivered", func() bool { return len(order) == 50 })
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d (FIFO violated under latency)", i, v)
		}
	}
}
