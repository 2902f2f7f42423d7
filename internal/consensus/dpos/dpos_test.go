package dpos

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

type cluster struct {
	t         *testing.T
	clk       *clock.AutoVirtual
	transport *network.Transport
	engines   []*Engine

	mu      sync.Mutex
	decided map[string][]ProducedBlock
}

func newCluster(t *testing.T, n int, interval time.Duration, maxItems int) *cluster {
	t.Helper()
	clk := clocktest.New(t)
	c := &cluster{
		t:         t,
		clk:       clk,
		transport: network.NewTransport(clk, nil),
		decided:   make(map[string][]ProducedBlock),
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("witness-%d", i)
	}
	cfgs := make([]Config, n)
	for i, id := range names {
		id := id
		cfgs[i] = Config{
			Clock:         clk,
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
		}
	}
	c.engines = NewNetwork(cfgs)
	for _, e := range c.engines {
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

// waitItems sleeps on the cluster's clock until id has observed want items.
func (c *cluster) waitItems(id string, want int) {
	c.t.Helper()
	clocktest.Until(c.t, c.clk, 5*time.Second, fmt.Sprintf("%s observes %d items", id, want), func() bool {
		return len(c.collectItems(id)) >= want
	})
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

// newWitness builds one engine as a network of one.
func newWitness(cfg Config) *Engine { return NewNetwork([]Config{cfg})[0] }

func TestSubmittedItemsAppearInBlocks(t *testing.T) {
	c := newCluster(t, 3, 10*time.Millisecond, 0)
	for i := 0; i < 10; i++ {
		if err := c.engines[i%3].Submit(fmt.Sprintf("op-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitItems("witness-0", 10)
	items := c.collectItems("witness-0")
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
	for i := 0; i < 4; i++ {
		c.waitItems(fmt.Sprintf("witness-%d", i), 1)
	}
}

func TestMaxBlockItemsBoundsBlocks(t *testing.T) {
	c := newCluster(t, 2, 10*time.Millisecond, 3)
	for i := 0; i < 10; i++ {
		if err := c.engines[0].Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	c.waitItems("witness-0", 10)
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
	c.clk.Sleep(300 * time.Millisecond)
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
	clk := clocktest.New(t)
	e := newWitness(Config{Clock: clk, ID: "w", Witnesses: []string{"a", "b", "c"}, ShuffleSeed: 3})
	for slot := uint64(0); slot < 30; slot++ {
		if e.witnessForSlot(slot) != e.witnessForSlot(slot) {
			t.Fatal("schedule must be deterministic")
		}
	}
	// The order kept for a round must equal a fresh computation, also when
	// slots are visited out of order.
	for _, slot := range []uint64{0, 7, 3, 29, 4, 8, 2, 28} {
		fresh := newWitness(Config{Clock: clk, ID: "w", Witnesses: []string{"a", "b", "c"}, ShuffleSeed: 3})
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
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	e := newWitness(Config{Clock: clk, ID: "x", Witnesses: []string{"x"}, Transport: tr})
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
	c.clk.Sleep(interval) // let the schedule start
	start := c.clk.Now()
	if err := c.engines[0].Submit("timed"); err != nil {
		t.Fatal(err)
	}
	c.waitItems("witness-0", 1)
	if elapsed := c.clk.Since(start); elapsed > 4*interval {
		t.Fatalf("finalization took %v, want O(block_interval)=%v", elapsed, interval)
	}
	if items := c.collectItems("witness-0"); items[0] != "timed" {
		t.Fatalf("finalized %v, want the timed item", items)
	}
}

// dropIncludedOracle is the backlog removal acceptBlock used to do: every
// pending payload compared against every item of the block.
func dropIncludedOracle(pending []gossipMsg, items []any) []gossipMsg {
	var kept []gossipMsg
	for _, g := range pending {
		drop := false
		for _, it := range items {
			if g.Payload == it {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, g)
		}
	}
	return kept
}

// TestDropIncludedMatchesNestedLoop checks the set-based backlog removal
// against the nested loop it replaced, over random backlogs and blocks:
// prefixes, scattered and repeated payloads, items the backlog never saw,
// mixed payload types.
func TestDropIncludedMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	payloads := make([]any, 40)
	for i := range payloads {
		switch i % 3 {
		case 0:
			payloads[i] = &struct{ n int }{i} // pointer identity, as transactions have
		case 1:
			payloads[i] = i
		default:
			payloads[i] = fmt.Sprintf("item-%d", i)
		}
	}
	e := newWitness(Config{Clock: clocktest.New(t), ID: "w", Witnesses: []string{"w"}})
	for trial := 0; trial < 500; trial++ {
		pending := make([]gossipMsg, rng.Intn(30))
		for i := range pending {
			pending[i] = gossipMsg{Digest: crypto.TxID("w", uint64(i), nil), Payload: payloads[rng.Intn(len(payloads))]}
		}
		var items []any
		switch trial % 3 {
		case 0: // the common case: a prefix of the backlog
			for _, g := range pending[:rng.Intn(len(pending)+1)] {
				items = append(items, g.Payload)
			}
		case 1: // anything, known to the backlog or not
			for i := rng.Intn(20); i > 0; i-- {
				items = append(items, payloads[rng.Intn(len(payloads))])
			}
		} // case 2: an empty block
		want := dropIncludedOracle(pending, items)
		e.pending = append([]gossipMsg(nil), pending...)
		e.dropIncluded(items)
		if len(e.pending) != len(want) {
			t.Fatalf("trial %d: kept %d of %d, the nested loop keeps %d", trial, len(e.pending), len(pending), len(want))
		}
		for i := range want {
			if e.pending[i] != want[i] {
				t.Fatalf("trial %d: kept[%d] differs from the nested loop's", trial, i)
			}
		}
		if len(e.included) != 0 {
			t.Fatalf("trial %d: the scratch set still pins %d payloads", trial, len(e.included))
		}
	}
}

// TestNetworkSharesOneSchedule: the engines NewNetwork builds from agreeing
// configs consult one schedule, which answers as each engine's own would; a
// config that disagrees keeps its own.
func TestNetworkSharesOneSchedule(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	clk := clocktest.New(t)
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = Config{Clock: clk, ID: names[i], Witnesses: names, ShuffleSeed: 9}
	}
	cfgs[3].ShuffleSeed = 10
	engines := NewNetwork(cfgs)
	if engines[1].sched != engines[0].sched || engines[2].sched != engines[0].sched {
		t.Fatal("engines of one network do not share a schedule")
	}
	if engines[3].sched == engines[0].sched {
		t.Fatal("an engine with another seed was handed the network's schedule")
	}
	for _, slot := range []uint64{0, 4, 5, 23, 7, 6, 100, 3} { // rounds out of order
		for i, e := range engines {
			private := newWitness(cfgs[i])
			if got, want := e.witnessForSlot(slot), private.witnessForSlot(slot); got != want {
				t.Fatalf("slot %d engine %d: shared schedule gives %s, a private one %s", slot, i, got, want)
			}
		}
	}
}

// TestNetworkSharesOneGossipIndex: the engines of one NewNetwork share one
// index, in which each is its config's position, so one engine's admission
// hides a digest from no other; the engine of another network keeps its
// own and is affected by no other engine.
func TestNetworkSharesOneGossipIndex(t *testing.T) {
	names := []string{"a", "b", "c"}
	clk := clocktest.New(t)
	cfgs := make([]Config, len(names))
	for i := range cfgs {
		cfgs[i] = Config{Clock: clk, ID: names[i], Witnesses: names, ShuffleSeed: 9}
	}
	engines := NewNetwork(cfgs)
	solo := newWitness(cfgs[0])
	for i, e := range engines {
		if e.seen != engines[0].seen || e.node != i {
			t.Fatalf("engine %d: index %p node %d, want the network's %p and node %d", i, e.seen, e.node, engines[0].seen, i)
		}
	}
	if solo.seen == engines[0].seen {
		t.Fatal("an engine of another network shares the network's index")
	}
	g := network.Message{Payload: gossipMsg{Digest: crypto.TxID("a", 1, nil), Payload: "tx"}}
	for _, e := range append(engines, solo) {
		e.handle(g)
		e.handle(g) // a repeat is admitted once
		if got := e.PendingCount(); got != 1 {
			t.Fatalf("%s (node %d) holds %d copies of one gossiped digest, want 1", e.cfg.ID, e.node, got)
		}
	}
	other := newWitness(cfgs[1])
	other.handle(g)
	if other.PendingCount() != 1 {
		t.Fatal("a second one-engine network saw the first one's admission")
	}
}
