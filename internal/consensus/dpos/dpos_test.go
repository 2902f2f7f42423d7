package dpos

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
)

type cluster struct {
	t         *testing.T
	clk       *clock.AutoVirtual
	transport *network.Transport
	engines   []*Engine
	decided   map[string][]ProducedBlock
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
				c.decided[id] = append(c.decided[id], blk)
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

// TestPackFilterExclusionStaysPendingElsewhere: a block carries the numbers
// of the items its PackFilter kept, so every other node drops exactly those
// from its backlog; the items the filter excluded leave the producer's
// backlog only.
func TestPackFilterExclusionStaysPendingElsewhere(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	t.Cleanup(tr.Stop)
	var produced []ProducedBlock
	cfgs := []Config{
		{Clock: clk, ID: "w", Witnesses: []string{"w"}, Observers: []string{"o"}, Transport: tr,
			PackFilter: func(items []any) (included, excluded []any) {
				for _, it := range items {
					if it == "x2" {
						excluded = append(excluded, it)
					} else {
						included = append(included, it)
					}
				}
				return included, excluded
			},
			OnDecide: func(d consensus.Decision) { produced = append(produced, d.Payload.(ProducedBlock)) }},
		{Clock: clk, ID: "o", Witnesses: []string{"w"}, Observers: []string{"o"}, Transport: tr},
	}
	engines := NewNetwork(cfgs)
	witness, observer := engines[0], engines[1]
	for num, payload := range []string{"x1", "x2", "x3", "x4"} {
		g := network.Message{Payload: gossipMsg{Num: uint64(num + 1), Payload: payload}}
		witness.handle(g)
		observer.handle(g)
	}
	witness.maybeProduce()
	if len(produced) != 1 {
		t.Fatalf("the witness produced %d blocks in its slot, want 1", len(produced))
	}
	blk := produced[0]
	if fmt.Sprint(blk.Items) != "[x1 x3 x4]" || fmt.Sprint(blk.Nums) != "[1 3 4]" {
		t.Fatalf("block holds items %v numbered %v, want [x1 x3 x4] numbered [1 3 4]", blk.Items, blk.Nums)
	}
	observer.acceptBlock(blk, blk)
	if w, o := witness.PendingCount(), observer.PendingCount(); w != 0 || o != 1 {
		t.Fatalf("pending: witness %d, observer %d; want 0 and the excluded item alone", w, o)
	}
	if left := observer.gossip.pool.Take(observer.node, 0); fmt.Sprint(left) != "[x2]" {
		t.Fatalf("the observer still holds %v, want [x2]", left)
	}
}

// TestIncludedNumsFollowsThePick: the numbers a block carries are those of
// the candidates PackFilter kept, in order, whichever it left out.
func TestIncludedNumsFollowsThePick(t *testing.T) {
	candidates := []any{"a", "b", "c", "d", "e"}
	for _, tc := range []struct {
		included []any
		want     string
	}{
		{nil, "[]"},
		{[]any{"a", "b", "c", "d", "e"}, "[10 20 30 40 50]"},
		{[]any{"b", "d"}, "[20 40]"},
		{[]any{"a", "e"}, "[10 50]"},
		{[]any{"e"}, "[50]"},
	} {
		nums := []uint64{10, 20, 30, 40, 50}
		if got := fmt.Sprint(includedNums(candidates, nums, tc.included)); got != tc.want {
			t.Errorf("included %v: numbers %s, want %s", tc.included, got, tc.want)
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

// TestNetworkSharesOneGossipPool: the engines of one NewNetwork share one
// pool, in which each is its config's position, so one engine's admission
// hides a gossip number from no other; the engine of another network keeps
// its own and is affected by no other engine.
func TestNetworkSharesOneGossipPool(t *testing.T) {
	names := []string{"a", "b", "c"}
	clk := clocktest.New(t)
	cfgs := make([]Config, len(names))
	for i := range cfgs {
		cfgs[i] = Config{Clock: clk, ID: names[i], Witnesses: names, ShuffleSeed: 9}
	}
	engines := NewNetwork(cfgs)
	solo := newWitness(cfgs[0])
	for i, e := range engines {
		if e.gossip != engines[0].gossip || e.node != i {
			t.Fatalf("engine %d: pool %p node %d, want the network's %p and node %d", i, e.gossip, e.node, engines[0].gossip, i)
		}
	}
	if solo.gossip == engines[0].gossip {
		t.Fatal("an engine of another network shares the network's pool")
	}
	g := network.Message{Payload: gossipMsg{Num: 1, Payload: "tx"}}
	for _, e := range append(engines, solo) {
		e.handle(g)
		e.handle(g) // a repeat is admitted once
		if got := e.PendingCount(); got != 1 {
			t.Fatalf("%s (node %d) holds %d copies of one gossiped number, want 1", e.cfg.ID, e.node, got)
		}
	}
	other := newWitness(cfgs[1])
	other.handle(g)
	if other.PendingCount() != 1 {
		t.Fatal("a second one-engine network saw the first one's admission")
	}
}

// TestLoneWitnessDeliversSubmitsInOrder: a lone witness packs several
// Submits made at one instant into its next block, in admission order, and
// delivers that block once.
func TestLoneWitnessDeliversSubmitsInOrder(t *testing.T) {
	c := newCluster(t, 1, 10*time.Millisecond, 0)
	e := c.engines[0]
	for i := 1; i <= 5; i++ {
		if err := e.Submit(fmt.Sprintf("tx-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitItems("witness-0", 5)
	c.clk.Sleep(50 * time.Millisecond)
	var items []any
	for _, blk := range c.decided["witness-0"] {
		items = append(items, blk.Items...)
	}
	if fmt.Sprint(items) != "[tx-1 tx-2 tx-3 tx-4 tx-5]" {
		t.Fatalf("delivered items %v, want tx-1..tx-5 once each, in order", items)
	}
}
