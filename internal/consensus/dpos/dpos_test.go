package dpos

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
)

type cluster struct {
	t         *testing.T
	transport *network.Transport
	engines   []*Engine

	mu      sync.Mutex
	decided map[string][]ProducedBlock
}

func newCluster(t *testing.T, n int, interval time.Duration, maxItems int) *cluster {
	t.Helper()
	c := &cluster{
		t:         t,
		transport: network.NewTransport(clock.New(), nil),
		decided:   make(map[string][]ProducedBlock),
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("witness-%d", i)
	}
	for _, id := range names {
		id := id
		e := New(Config{
			ID:            id,
			Witnesses:     names,
			Transport:     c.transport,
			BlockInterval: interval,
			MaxBlockItems: maxItems,
			ShuffleSeed:   7,
			OnDecide: func(d consensus.Decision) {
				blk, ok := d.Payload.(ProducedBlock)
				if !ok {
					t.Errorf("payload is %T, want ProducedBlock", d.Payload)
					return
				}
				c.mu.Lock()
				c.decided[id] = append(c.decided[id], blk)
				c.mu.Unlock()
			},
		})
		c.engines = append(c.engines, e)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, e := range c.engines {
			e.Stop()
		}
		c.transport.Stop()
	})
	return c
}

func (c *cluster) collectItems(id string) []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	var items []any
	for _, b := range c.decided[id] {
		items = append(items, b.Items...)
	}
	return items
}

func TestSubmittedItemsAppearInBlocks(t *testing.T) {
	c := newCluster(t, 3, 10*time.Millisecond, 0)
	for i := 0; i < 10; i++ {
		if err := c.engines[i%3].Submit(fmt.Sprintf("op-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.collectItems("witness-0")) >= 10 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	items := c.collectItems("witness-0")
	if len(items) < 10 {
		t.Fatalf("witness-0 observed %d items, want 10", len(items))
	}
	got := make(map[any]int)
	for _, it := range items {
		got[it]++
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("op-%d", i)
		if got[key] != 1 {
			t.Fatalf("item %s included %d times, want exactly 1", key, got[key])
		}
	}
}

func TestAllWitnessesObserveBlocks(t *testing.T) {
	c := newCluster(t, 4, 10*time.Millisecond, 0)
	if err := c.engines[0].Submit("payload"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for i := 0; i < 4; i++ {
			if len(c.collectItems(fmt.Sprintf("witness-%d", i))) < 1 {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("not every witness observed the block")
}

func TestMaxBlockItemsBoundsBlocks(t *testing.T) {
	c := newCluster(t, 2, 10*time.Millisecond, 3)
	for i := 0; i < 10; i++ {
		if err := c.engines[0].Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.collectItems("witness-0")) >= 10 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.decided["witness-0"] {
		if len(b.Items) > 3 {
			t.Fatalf("block has %d items, exceeds MaxBlockItems=3", len(b.Items))
		}
	}
}

func TestScheduleSharesProduction(t *testing.T) {
	c := newCluster(t, 3, 5*time.Millisecond, 0)
	time.Sleep(300 * time.Millisecond)
	producing := 0
	for _, e := range c.engines {
		if e.Produced() > 0 {
			producing++
		}
	}
	if producing < 2 {
		t.Fatalf("only %d witnesses produced blocks; schedule not rotating", producing)
	}
}

func TestWitnessForSlotDeterministic(t *testing.T) {
	e := New(Config{ID: "w", Witnesses: []string{"a", "b", "c"}, ShuffleSeed: 3})
	for slot := uint64(0); slot < 30; slot++ {
		if e.witnessForSlot(slot) != e.witnessForSlot(slot) {
			t.Fatal("schedule must be deterministic")
		}
	}
	// The order kept for a round must equal a fresh computation, also when
	// slots are visited out of order.
	for _, slot := range []uint64{0, 7, 3, 29, 4, 8, 2, 28} {
		fresh := New(Config{ID: "w", Witnesses: []string{"a", "b", "c"}, ShuffleSeed: 3})
		if got, want := e.witnessForSlot(slot), fresh.witnessForSlot(slot); got != want {
			t.Fatalf("slot %d: kept order gives %s, fresh shuffle gives %s", slot, got, want)
		}
	}
	// The engine reseeds one generator per round; the schedule is the one a
	// generator made for that round alone draws.
	for _, slot := range []uint64{29, 0, 13, 5} {
		order := []string{"a", "b", "c"}
		rng := rand.New(rand.NewSource(3 + int64(slot/3)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got, want := e.witnessForSlot(slot), order[slot%3]; got != want {
			t.Fatalf("slot %d: reseeded generator schedules %s, a fresh one %s", slot, got, want)
		}
	}
	// Every round must schedule each witness exactly once.
	seen := map[string]int{}
	for slot := uint64(0); slot < 3; slot++ {
		seen[e.witnessForSlot(slot)]++
	}
	for _, w := range []string{"a", "b", "c"} {
		if seen[w] != 1 {
			t.Fatalf("witness %s scheduled %d times in round, want 1", w, seen[w])
		}
	}
}

func TestSubmitNotRunning(t *testing.T) {
	tr := network.NewTransport(clock.New(), nil)
	defer tr.Stop()
	e := New(Config{ID: "x", Witnesses: []string{"x"}, Transport: tr})
	if err := e.Submit(1); err != consensus.ErrNotRunning {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

func TestFinalizationLatencyTracksInterval(t *testing.T) {
	// The paper observes BitShares finalization latency "close to the
	// specified block_interval" (§5.3). Submitting right after a block
	// means waiting roughly one interval.
	interval := 50 * time.Millisecond
	c := newCluster(t, 2, interval, 0)
	time.Sleep(interval) // let the schedule start
	start := time.Now()
	if err := c.engines[0].Submit("timed"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, it := range c.collectItems("witness-0") {
			if it == "timed" {
				elapsed := time.Since(start)
				if elapsed > 4*interval {
					t.Fatalf("finalization took %v, want O(block_interval)=%v", elapsed, interval)
				}
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("item never finalized")
}
