package network

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

// waitDelivered sleeps on clk until tr has delivered want messages.
func waitDelivered(t *testing.T, clk *clock.AutoVirtual, tr *Transport, want uint64, timeout time.Duration) {
	t.Helper()
	clocktest.Until(t, clk, timeout, fmt.Sprintf("%d deliveries", want), func() bool {
		_, delivered, _ := tr.Stats()
		return delivered >= want
	})
}

// TestHealAllUndoesIsolate: Isolate cuts 2(n-1) links at once and HealAll
// is its wholesale inverse; the Stats counters show traffic stopping and
// resuming.
func TestHealAllUndoesIsolate(t *testing.T) {
	clk := clocktest.New(t)
	tr := NewTransport(clk, nil)
	defer tr.Stop()
	for _, name := range []string{"a", "b", "c"} {
		tr.Register(name, func(Message) {})
	}

	if err := tr.Send("a", "b", "k", 1); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, clk, tr, 1, time.Second)
	sentBefore, deliveredBefore, droppedBefore := tr.Stats()
	if sentBefore != 1 || deliveredBefore != 1 || droppedBefore != 0 {
		t.Fatalf("healthy stats = (%d, %d, %d), want (1, 1, 0)", sentBefore, deliveredBefore, droppedBefore)
	}

	tr.Isolate("a")
	if got, want := tr.CutCount(), 4; got != want {
		t.Fatalf("cut links after Isolate = %d, want %d", got, want)
	}
	if err := tr.Send("a", "b", "k", 2); err != ErrLinkDown {
		t.Fatalf("send on isolated link: err = %v, want ErrLinkDown", err)
	}
	if err := tr.Send("c", "a", "k", 3); err != ErrLinkDown {
		t.Fatalf("send to isolated endpoint: err = %v, want ErrLinkDown", err)
	}
	// Cut-link sends never enter the fabric: sent must not advance.
	if sent, _, _ := tr.Stats(); sent != sentBefore {
		t.Fatalf("sent advanced to %d during isolation", sent)
	}

	tr.HealAll()
	if tr.CutCount() != 0 {
		t.Fatalf("cut links after HealAll = %d, want 0", tr.CutCount())
	}
	if err := tr.Send("a", "b", "k", 4); err != nil {
		t.Fatalf("send after HealAll: %v", err)
	}
	if err := tr.Send("c", "a", "k", 5); err != nil {
		t.Fatalf("send after HealAll: %v", err)
	}
	waitDelivered(t, clk, tr, 3, time.Second)
	sent, delivered, dropped := tr.Stats()
	if sent != 3 || delivered != 3 || dropped != 0 {
		t.Fatalf("stats after heal = (%d, %d, %d), want (3, 3, 0)", sent, delivered, dropped)
	}
}

// TestDegradeLinkAddsLatency: a degraded link delays delivery by the
// configured extra on top of the (zero) latency model.
func TestDegradeLinkAddsLatency(t *testing.T) {
	clk := clocktest.New(t)
	tr := NewTransport(clk, nil)
	defer tr.Stop()
	var deliveredAt time.Time
	tr.Register("dst", func(m Message) { deliveredAt = clk.Now() })
	tr.Register("src", func(Message) {})

	const extra = 60 * time.Millisecond
	tr.DegradeLink("src", "dst", extra, 0)
	if tr.DegradedCount() != 1 {
		t.Fatalf("degraded links = %d, want 1", tr.DegradedCount())
	}
	start := clk.Now()
	if err := tr.Send("src", "dst", "k", nil); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, clk, tr, 1, 2*time.Second)
	if got := deliveredAt.Sub(start); got != extra {
		t.Fatalf("delivery took %v, want the link's extra %v", got, extra)
	}

	// HealAll clears the degradation too.
	tr.HealAll()
	if tr.DegradedCount() != 0 {
		t.Fatal("HealAll left the degradation in place")
	}
}

// TestDegradeLinkLoss: with loss probability 1 every message vanishes
// in flight — the sender sees success, the dropped and lost counters
// advance, and nothing is delivered.
func TestDegradeLinkLoss(t *testing.T) {
	clk := clocktest.New(t)
	tr := NewTransport(clk, nil)
	defer tr.Stop()
	got := 0
	tr.Register("dst", func(Message) { got++ })
	tr.Register("src", func(Message) {})

	tr.DegradeLink("src", "dst", 0, 1.0)
	const n = 20
	for i := 0; i < n; i++ {
		if err := tr.Send("src", "dst", "k", i); err != nil {
			t.Fatalf("lossy send %d errored: %v (loss must be silent)", i, err)
		}
	}
	sent, delivered, dropped := tr.Stats()
	if sent != n {
		t.Fatalf("sent = %d, want %d", sent, n)
	}
	if delivered != 0 || got != 0 {
		t.Fatalf("delivered = %d (handler saw %d), want 0", delivered, got)
	}
	if dropped != n || tr.LostCount() != n {
		t.Fatalf("dropped = %d, lost = %d, want %d each", dropped, tr.LostCount(), n)
	}

	// Zeroing the degradation restores lossless delivery.
	tr.DegradeLink("src", "dst", 0, 0)
	if tr.DegradedCount() != 0 {
		t.Fatal("zero degradation should clear the link entry")
	}
	if err := tr.Send("src", "dst", "k", nil); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, clk, tr, 1, time.Second)
}
