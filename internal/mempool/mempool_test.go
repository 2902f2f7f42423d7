package mempool

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
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

// TestRemoveFiltersInPlace: Remove keeps the survivors in FIFO order, leaves
// nothing of the dropped items in the backing array, and is no admission.
func TestRemoveFiltersInPlace(t *testing.T) {
	p := NewBounded[*int](8)
	vals := make([]*int, 8)
	for i := range vals {
		v := i
		vals[i] = &v
		if err := p.Add(vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	backing := p.items[:cap(p.items)]
	p.Remove(func(v *int) bool { return *v%3 == 0 }) // drops 0, 3, 6
	if p.Len() != 5 {
		t.Fatalf("Len = %d, want 5", p.Len())
	}
	for i := 5; i < 8; i++ {
		if backing[i] != nil {
			t.Fatalf("vacated slot %d still points at a removed item", i)
		}
	}
	if admitted, rejected := p.Stats(); admitted != 8 || rejected != 0 {
		t.Fatalf("stats = %d/%d after Remove, want 8/0", admitted, rejected)
	}
	// The freed room is real room.
	if err := p.Add(vals[0]); err != nil {
		t.Fatalf("add after remove: %v", err)
	}
	var got []int
	for _, v := range p.Take(0) {
		got = append(got, *v)
	}
	if want := []int{1, 2, 4, 5, 7, 0}; !slices.Equal(got, want) {
		t.Fatalf("order after Remove = %v, want %v", got, want)
	}
	p.Remove(func(*int) bool { return true }) // an empty pool is fine
	if p.Len() != 0 {
		t.Fatal("Remove on an empty pool left items")
	}
}

func TestConcurrentAddTake(t *testing.T) {
	p := NewBounded[int](128)
	var wg sync.WaitGroup
	var mu sync.Mutex
	taken := 0
	added := 0

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := p.Add(i); err == nil {
					mu.Lock()
					added++
					mu.Unlock()
				}
			}
		}()
	}
	done := make(chan struct{})
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for {
			n := len(p.Take(16))
			mu.Lock()
			taken += n
			mu.Unlock()
			select {
			case <-done:
				mu.Lock()
				taken += len(p.Take(0))
				mu.Unlock()
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	consumer.Wait()

	mu.Lock()
	defer mu.Unlock()
	if taken != added {
		t.Fatalf("taken = %d, added = %d (items lost or duplicated)", taken, added)
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
