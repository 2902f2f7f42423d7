package systems

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/crypto"
)

func TestHubFiresOnlyWhenAllNodesCommit(t *testing.T) {
	h := NewHub(3)
	var mu sync.Mutex
	var got []Event
	h.Subscribe("client-1", func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	ev := Event{TxID: crypto.SumString("tx"), Client: "client-1", Committed: true, ValidOK: true}

	h.Node("n0").Committed(ev, time.Unix(1, 0))
	h.Node("n1").Committed(ev, time.Unix(2, 0))
	mu.Lock()
	if len(got) != 0 {
		t.Fatal("event fired before all nodes committed")
	}
	mu.Unlock()
	if h.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", h.PendingCount())
	}

	h.Node("n2").Committed(ev, time.Unix(3, 0))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("events = %d, want 1", len(got))
	}
	if !got[0].FinalizedAt.Equal(time.Unix(3, 0)) {
		t.Fatalf("FinalizedAt = %v, want the last node's time", got[0].FinalizedAt)
	}
	if h.PendingCount() != 0 || h.EmittedCount() != 1 {
		t.Fatal("hub bookkeeping wrong after emit")
	}
}

func TestHubIgnoresDuplicateNodeReports(t *testing.T) {
	h := NewHub(2)
	fired := 0
	h.Subscribe("c", func(Event) { fired++ })
	ev := Event{TxID: crypto.SumString("tx"), Client: "c"}
	h.Node("n0").Committed(ev, time.Now())
	h.Node("n0").Committed(ev, time.Now()) // duplicate
	if fired != 0 {
		t.Fatal("duplicate node report completed the transaction")
	}
	h.Node("n1").Committed(ev, time.Now())
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// Late replays after emission must not re-fire.
	h.Node("n0").Committed(ev, time.Now())
	if fired != 1 {
		t.Fatal("event re-fired after emission")
	}
}

func TestHubRoutesByClient(t *testing.T) {
	h := NewHub(1)
	var aEvents, bEvents int
	h.Subscribe("a", func(Event) { aEvents++ })
	h.Subscribe("b", func(Event) { bEvents++ })
	h.Node("n0").Committed(Event{TxID: crypto.SumString("t1"), Client: "a"}, time.Now())
	h.Node("n0").Committed(Event{TxID: crypto.SumString("t2"), Client: "b"}, time.Now())
	h.Node("n0").Committed(Event{TxID: crypto.SumString("t3"), Client: "b"}, time.Now())
	if aEvents != 1 || bEvents != 2 {
		t.Fatalf("routing wrong: a=%d b=%d", aEvents, bEvents)
	}
}

func TestHubUnsubscribedClientDropsSilently(t *testing.T) {
	h := NewHub(1)
	// Must not panic.
	h.Node("n0").Committed(Event{TxID: crypto.SumString("t"), Client: "nobody"}, time.Now())
	if h.EmittedCount() != 1 {
		t.Fatal("event not recorded as emitted")
	}
}

func TestHubEmitDirect(t *testing.T) {
	h := NewHub(4)
	var got []Event
	h.Subscribe("c", func(e Event) { got = append(got, e) })
	h.EmitDirect(Event{TxID: crypto.SumString("rejected"), Client: "c", Committed: false, Code: AbortExecFailed}, time.Unix(9, 0))
	if len(got) != 1 || got[0].Committed || got[0].Client != "c" || got[0].Code != AbortExecFailed {
		t.Fatalf("got = %+v", got)
	}
	if !got[0].FinalizedAt.Equal(time.Unix(9, 0)) {
		t.Fatal("EmitDirect must stamp FinalizedAt")
	}
}

// TestHubManyTransactionsConcurrentExactlyOnce: node events on one clock
// interleave their commits for many transactions between their waits, each
// reporting every transaction twice; every transaction emits exactly once
// (run under -race).
func TestHubManyTransactionsConcurrentExactlyOnce(t *testing.T) {
	const (
		nodes = 5
		txs   = 400
	)
	clk := clocktest.New(t)
	h := NewHub(nodes)
	fired := make(map[crypto.Hash]int, txs)
	h.Subscribe("c", func(e Event) { fired[e.TxID]++ })

	names := make([]string, nodes)
	for n := range names {
		names[n] = string(rune('a' + n))
	}
	next := make([]int, nodes) // each node's next transaction
	reported := make([]bool, nodes)
	clocktest.Steps(t, clk, time.Minute, "nodes committing", names, func(n int) (time.Duration, bool) {
		node, i := h.Node(names[n]), next[n]
		if i == txs {
			return 0, true
		}
		ev := Event{TxID: crypto.SumString("tx-" + string(rune(i))), Client: "c"}
		node.Committed(ev, clk.Now())
		if reported[n] = !reported[n]; reported[n] {
			return time.Duration(1+n) * time.Microsecond, false
		}
		// That was a duplicate report from the same node: it must be
		// idempotent.
		next[n]++
		return 0, false
	})

	if len(fired) != txs {
		t.Fatalf("%d transactions fired, want %d", len(fired), txs)
	}
	for id, n := range fired {
		if n != 1 {
			t.Fatalf("tx %s fired %d times, want exactly 1", id.Short(), n)
		}
	}
	if h.PendingCount() != 0 {
		t.Fatalf("pending = %d after all nodes committed everything", h.PendingCount())
	}
	if got := h.EmittedCount(); got != len(fired) {
		t.Fatalf("EmittedCount = %d, fired = %d", got, len(fired))
	}
}

// TestHubTombstoneRetentionBounded checks the fix for the seed's unbounded
// emitted-map growth: tombstones are retired FIFO, so memory stays constant while the lifetime emitted counter keeps increasing.
func TestHubTombstoneRetentionBounded(t *testing.T) {
	const retention = 8
	h := NewHub(1, WithEmittedRetention(retention))
	for i := 0; i < 100; i++ {
		ev := Event{TxID: crypto.SumString(fmt.Sprintf("tx-%d", i)), Client: "c"}
		h.Node("n0").Committed(ev, time.Unix(int64(i), 0))
	}
	if got := h.EmittedCount(); got != 100 {
		t.Fatalf("EmittedCount = %d, want 100", got)
	}
	if got := h.TombstoneCount(); got != retention {
		t.Fatalf("TombstoneCount = %d, want retention cap %d", got, retention)
	}
	// A late replay of a recently emitted transaction must still be
	// suppressed.
	last := Event{TxID: crypto.SumString("tx-99"), Client: "c"}
	before := h.EmittedCount()
	h.Node("n0").Committed(last, time.Unix(1000, 0))
	if h.EmittedCount() != before {
		t.Fatal("tombstoned transaction re-emitted")
	}
}

// TestHubEntryIsItsOwnTombstone runs forty retention windows of transactions
// through a multi-node hub whose finalized entries stay in the one
// transaction map as tombstones: a duplicate report inside the window stays
// suppressed — right after emission and again when the window (the hub's
// total, not a per-partition share) is about to retire it — every ID in the
// retention ring is a tombstone, the map holds exactly the ring once nothing
// is pending, freed slots are reused and pin nothing, and a transaction the
// window has retired is unknown again.
func TestHubEntryIsItsOwnTombstone(t *testing.T) {
	const (
		nodes     = 3
		retention = 16
		txs       = 40 * retention
	)
	h := NewHub(nodes, WithEmittedRetention(retention))
	fired := make(map[crypto.Hash]int, txs)
	h.Subscribe("c", func(e Event) { fired[e.TxID]++ })
	handles := []*HubNode{h.Node("a"), h.Node("b"), h.Node("c")}
	event := func(i int) Event {
		return Event{TxID: crypto.SumString(fmt.Sprintf("tx-%d", i)), Client: "c", Code: AbortExecFailed}
	}
	for i := 0; i < txs; i++ {
		ev := event(i)
		for _, n := range handles {
			n.Committed(ev, time.Unix(int64(i), 0))
		}
		// Every node reports again right after emission: inside the window.
		for _, n := range handles {
			n.Committed(ev, time.Unix(int64(i), 1))
		}
		// The oldest transaction still inside the window is its last entry:
		// a late duplicate of it is suppressed whatever its hash.
		if oldest := i - (retention - 1); oldest >= 0 {
			handles[0].Committed(event(oldest), time.Unix(int64(i), 2))
		}
		if got := h.TombstoneCount(); got > retention {
			t.Fatalf("after %d transactions: TombstoneCount = %d, above retention = %d", i+1, got, retention)
		}
		if h.PendingCount() != 0 {
			t.Fatalf("after %d transactions: PendingCount = %d, a duplicate re-opened one", i+1, h.PendingCount())
		}
	}
	if len(fired) != txs || h.EmittedCount() != txs {
		t.Fatalf("fired %d, EmittedCount %d, want %d", len(fired), h.EmittedCount(), txs)
	}
	for id, n := range fired {
		if n != 1 {
			t.Fatalf("tx %s fired %d times", id.Short(), n)
		}
	}
	for _, id := range h.ring {
		if h.txs[id] != tombstone {
			t.Fatalf("ring holds %s, which the transaction map does not tombstone", id.Short())
		}
	}
	if len(h.ring) != h.TombstoneCount() || len(h.txs) != len(h.ring) {
		t.Fatalf("transaction map holds %d entries, ring %d, TombstoneCount %d: an entry leaked", len(h.txs), len(h.ring), h.TombstoneCount())
	}
	if _, ok := h.txs[event(0).TxID]; ok {
		t.Fatal("a transaction the ring retired is still known")
	}
	// One transaction was pending at a time, so every one reused the slot
	// the last one freed.
	if len(h.slab) != 1 || len(h.free) != 1 {
		t.Fatalf("slab holds %d slots, %d free; want the 1 every transaction reuses", len(h.slab), len(h.free))
	}
	if h.slab[0].event != (Event{}) {
		t.Fatal("a freed slab slot still holds its event")
	}
	// The oldest transaction left the window long ago: one node's late
	// report opens it afresh and cannot complete it.
	handles[0].Committed(event(0), time.Unix(txs, 0))
	if h.PendingCount() != 1 || fired[event(0).TxID] != 1 {
		t.Fatalf("retired transaction: pending %d, fired %d; want 1 and 1", h.PendingCount(), fired[event(0).TxID])
	}
}

// TestHubBitsetBeyondOneWord: networks above 64 nodes spill the report
// bitset past its inline word.
func TestHubBitsetBeyondOneWord(t *testing.T) {
	const nodes = 130
	h := NewHub(nodes)
	fired := 0
	h.Subscribe("c", func(Event) { fired++ })
	ev := Event{TxID: crypto.SumString("tx"), Client: "c"}
	for round := 0; round < 2; round++ { // the second round is all duplicates
		for i := nodes - 1; i >= 0; i-- {
			if fired != 0 && round == 0 {
				t.Fatalf("fired after %d of %d nodes", nodes-1-i, nodes)
			}
			h.Node(fmt.Sprintf("n%d", i)).Committed(ev, time.Unix(int64(i), 0))
		}
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// TestHubNodeHandleInterning checks handles are stable per identity.
func TestHubNodeHandleInterning(t *testing.T) {
	h := NewHub(2)
	a1, a2 := h.Node("a"), h.Node("a")
	if a1 != a2 {
		t.Fatal("same identity interned twice")
	}
	if a1.ID() != "a" {
		t.Fatalf("handle ID = %q", a1.ID())
	}
	fired := 0
	h.Subscribe("c", func(Event) { fired++ })
	ev := Event{TxID: crypto.SumString("tx"), Client: "c"}
	a1.Committed(ev, time.Unix(1, 0))
	h.Node("a").Committed(ev, time.Unix(2, 0)) // duplicate via a second lookup
	if fired != 0 {
		t.Fatal("duplicate node report fired the event")
	}
	h.Node("b").Committed(ev, time.Unix(3, 0))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// TestHubConcurrentCommitsFireExactlyOnce: eight node events report one
// transaction, each in its own turn on the clock; it fires exactly once.
func TestHubConcurrentCommitsFireExactlyOnce(t *testing.T) {
	clk := clocktest.New(t)
	h := NewHub(8)
	fired := 0
	h.Subscribe("c", func(Event) { fired++ })
	ev := Event{TxID: crypto.SumString("tx"), Client: "c"}
	names := make([]string, 8)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	slept := make([]bool, 8)
	clocktest.Steps(t, clk, time.Second, "nodes committing", names, func(i int) (time.Duration, bool) {
		if !slept[i] {
			slept[i] = true
			return time.Duration(8-i) * time.Microsecond, false
		}
		h.Node(names[i]).Committed(ev, clk.Now())
		return 0, true
	})
	if fired != 1 {
		t.Fatalf("fired = %d, want exactly 1", fired)
	}
}

// TestHubCommittedAllocs pins that a warm hub allocates nothing per report:
// a finalized transaction's slab slot and its tombstone's ring entry are
// reused by the next ones. Transactions cycle through more IDs than the
// retention holds, so every round also retires a tombstone and re-opens a
// retired ID.
func TestHubCommittedAllocs(t *testing.T) {
	const nodes = 4
	h := NewHub(nodes, WithEmittedRetention(16))
	fired := 0
	h.Subscribe("c", func(Event) { fired++ })
	handles := make([]*HubNode, nodes)
	for i := range handles {
		handles[i] = h.Node(fmt.Sprintf("n%d", i))
	}
	ids := make([]crypto.Hash, 64)
	for i := range ids {
		ids[i] = crypto.SumString(fmt.Sprintf("tx-%d", i))
	}
	next := 0
	round := func() {
		ev := Event{TxID: ids[next%len(ids)], Client: "c", Committed: true, ValidOK: true}
		next++
		for _, n := range handles {
			n.Committed(ev, time.Unix(int64(next), 0))
		}
		handles[0].Committed(ev, time.Unix(int64(next), 1)) // a late duplicate
	}
	for range 4 * len(ids) {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("a round of %d reports allocates %v times, want 0", nodes+1, n)
	}
	if fired != next || h.PendingCount() != 0 || h.TombstoneCount() != 16 {
		t.Fatalf("fired %d of %d, pending %d, tombstones %d", fired, next, h.PendingCount(), h.TombstoneCount())
	}
}
