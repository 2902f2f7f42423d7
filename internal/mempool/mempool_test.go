package mempool

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

func TestBoundedRejectsAtCapacity(t *testing.T) {
	p := NewBounded[int](2)
	if err := p.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	admitted, rejected := p.Stats()
	if admitted != 2 || rejected != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", admitted, rejected)
	}
}

func TestBoundedAdmitsAfterDrain(t *testing.T) {
	p := NewBounded[int](1)
	if err := p.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(2); !errors.Is(err, ErrQueueFull) {
		t.Fatal("expected rejection at capacity")
	}
	p.Take(1)
	if err := p.Add(3); err != nil {
		t.Fatalf("add after drain: %v", err)
	}
}

func TestUnboundedNeverRejects(t *testing.T) {
	p := NewUnbounded[int]()
	for i := 0; i < 100000; i++ {
		if err := p.Add(i); err != nil {
			t.Fatalf("unbounded pool rejected at %d: %v", i, err)
		}
	}
	if p.Len() != 100000 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestTakeFIFO(t *testing.T) {
	p := NewUnbounded[int]()
	for i := 0; i < 10; i++ {
		_ = p.Add(i)
	}
	first := p.Take(4)
	if len(first) != 4 {
		t.Fatalf("len = %d, want 4", len(first))
	}
	for i, v := range first {
		if v != i {
			t.Fatalf("first[%d] = %d, want %d", i, v, i)
		}
	}
	rest := p.Take(0) // drain
	if len(rest) != 6 || rest[0] != 4 || rest[5] != 9 {
		t.Fatalf("rest = %v", rest)
	}
	if p.Len() != 0 {
		t.Fatalf("Len after drain = %d", p.Len())
	}
}

func TestTakeEmpty(t *testing.T) {
	p := NewUnbounded[int]()
	if got := p.Take(5); got != nil {
		t.Fatalf("Take on empty = %v, want nil", got)
	}
}

// TestConcurrentAddTake: four producer events and a slower consumer event
// share a bounded pool on one clock, interleaved between their waits, so the
// pool fills and rejects; every admitted item is taken exactly once.
func TestConcurrentAddTake(t *testing.T) {
	const producers, perProducer = 4, 1000
	clk := clocktest.New(t)
	p := NewBounded[int](128)
	added, taken, producing := 0, 0, producers
	names := []string{"producer-0", "producer-1", "producer-2", "producer-3", "consumer"}
	next := make([]int, producers) // each producer's next item
	clocktest.Steps(t, clk, time.Minute, "producers and consumer", names, func(a int) (time.Duration, bool) {
		if a < producers {
			if next[a] == perProducer {
				producing--
				return 0, true
			}
			if p.Add(next[a]) == nil {
				added++
			}
			next[a]++
			return time.Duration(1+a) * time.Microsecond, false
		}
		if producing > 0 {
			taken += len(p.Take(16))
			return 10 * time.Microsecond, false
		}
		taken += len(p.Take(0))
		return 0, true
	})

	if taken != added {
		t.Fatalf("taken = %d, added = %d (items lost or duplicated)", taken, added)
	}
	if _, rejected := p.Stats(); rejected == 0 || added+int(rejected) != producers*perProducer {
		t.Fatalf("added %d + rejected %d, want %d with some rejected", added, rejected, producers*perProducer)
	}
}

// Property: a bounded pool never holds more than its capacity.
func TestPropertyBoundedNeverExceedsCapacity(t *testing.T) {
	f := func(adds []uint8, capacity uint8) bool {
		c := int(capacity%16) + 1
		p := NewBounded[uint8](c)
		for _, a := range adds {
			_ = p.Add(a)
			if p.Len() > c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: admitted items all come back out, in order.
func TestPropertyTakeReturnsAdmittedInOrder(t *testing.T) {
	f := func(items []int) bool {
		p := NewUnbounded[int]()
		for _, it := range items {
			if err := p.Add(it); err != nil {
				return false
			}
		}
		got := p.Take(0)
		if len(got) != len(items) {
			return false
		}
		for i := range got {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
