package systems

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/crypto"
)

func TestHubFiresOnlyWhenAllNodesCommit(t *testing.T) {
	h := NewHub(3)
	var got []Event
	h.Subscribe("client-1", func(e Event) { got = append(got, e) })
	ev := Event{TxID: crypto.SumString("tx"), Num: 1, Client: "client-1", Committed: true, ValidOK: true}

	h.Node("n0").Committed(ev, time.Unix(1, 0))
	h.Node("n1").Committed(ev, time.Unix(2, 0))
	if len(got) != 0 {
		t.Fatal("event fired before all nodes committed")
	}
	if h.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", h.PendingCount())
	}

	h.Node("n2").Committed(ev, time.Unix(3, 0))
	if len(got) != 1 {
		t.Fatalf("events = %d, want 1", len(got))
	}
	if !got[0].FinalizedAt.Equal(time.Unix(3, 0)) {
		t.Fatalf("FinalizedAt = %v, want the last node's time", got[0].FinalizedAt)
	}
	if h.PendingCount() != 0 || h.EmittedCount() != 1 || h.UnnumberedCount() != 0 {
		t.Fatal("hub bookkeeping wrong after emit")
	}
}

// TestHubIgnoresDuplicateNodeReports, for a numbered event and for an
// unnumbered one, which the hub numbers by its ID.
func TestHubIgnoresDuplicateNodeReports(t *testing.T) {
	for _, num := range []uint64{7, 0} {
		h := NewHub(2)
		fired := 0
		h.Subscribe("c", func(Event) { fired++ })
		ev := Event{TxID: crypto.SumString("tx"), Num: num, Client: "c"}
		h.Node("n0").Committed(ev, time.Now())
		h.Node("n0").Committed(ev, time.Now()) // duplicate
		if fired != 0 {
			t.Fatalf("Num %d: duplicate node report completed the transaction", num)
		}
		h.Node("n1").Committed(ev, time.Now())
		if fired != 1 {
			t.Fatalf("Num %d: fired = %d, want 1", num, fired)
		}
		// Late replays after emission must not re-fire.
		h.Node("n0").Committed(ev, time.Now())
		if fired != 1 {
			t.Fatalf("Num %d: event re-fired after emission", num)
		}
		if want := map[uint64]int{7: 0, 0: 1}[num]; h.UnnumberedCount() != want {
			t.Fatalf("Num %d: %d transactions numbered by ID, want %d", num, h.UnnumberedCount(), want)
		}
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

// TestHubSuppressesLateDuplicates: an emitted transaction stays emitted for
// the hub's lifetime, numbered or not. A node's duplicate report after
// 100 000 later emissions is still dropped and opens nothing.
func TestHubSuppressesLateDuplicates(t *testing.T) {
	const txs = 100_000
	for _, numbered := range []bool{true, false} {
		h := NewHub(2)
		fired := 0
		h.Subscribe("c", func(Event) { fired++ })
		a, b := h.Node("a"), h.Node("b")
		event := func(i int) Event {
			ev := Event{TxID: crypto.SumString(fmt.Sprintf("tx-%d", i)), Client: "c"}
			if numbered {
				ev.Num = uint64(i + 1)
			}
			return ev
		}
		for i := range txs {
			ev := event(i)
			a.Committed(ev, time.Unix(int64(i), 0))
			b.Committed(ev, time.Unix(int64(i), 0))
		}
		a.Committed(event(0), time.Unix(txs, 0))
		if fired != txs || h.EmittedCount() != txs || h.PendingCount() != 0 {
			t.Fatalf("numbered %v: fired %d, EmittedCount %d of %d, PendingCount %d after a late duplicate; want none pending",
				numbered, fired, h.EmittedCount(), txs, h.PendingCount())
		}
		b.Committed(event(0), time.Unix(txs, 1))
		if fired != txs {
			t.Fatalf("numbered %v: the first transaction re-fired after %d later emissions", numbered, txs-1)
		}
	}
}

// TestHubEntryIsItsOwnTombstone runs 640 numbered transactions through a
// multi-node hub whose index word for a transaction is its slab slot while
// it collects reports and its tombstone once it has emitted: duplicate
// reports right after emission and late ones for old transactions stay
// suppressed, every emitted transaction's word is the tombstone, freed slots
// are reused and pin nothing, and nothing takes the unnumbered path.
func TestHubEntryIsItsOwnTombstone(t *testing.T) {
	const (
		nodes = 3
		txs   = 640
	)
	h := NewHub(nodes)
	fired := make(map[uint64]int, txs)
	h.Subscribe("c", func(e Event) { fired[e.Num]++ })
	handles := []*HubNode{h.Node("a"), h.Node("b"), h.Node("c")}
	event := func(i int) Event {
		return Event{TxID: crypto.SumString(fmt.Sprintf("tx-%d", i)), Num: uint64(i + 1), Client: "c", Code: AbortExecFailed}
	}
	for i := 0; i < txs; i++ {
		ev := event(i)
		for _, n := range handles {
			n.Committed(ev, time.Unix(int64(i), 0))
		}
		// Every node reports again right after emission.
		for _, n := range handles {
			n.Committed(ev, time.Unix(int64(i), 1))
		}
		// A late duplicate of a transaction long emitted.
		handles[0].Committed(event(i/2), time.Unix(int64(i), 2))
		if h.PendingCount() != 0 {
			t.Fatalf("after %d transactions: PendingCount = %d, a duplicate re-opened one", i+1, h.PendingCount())
		}
	}
	if len(fired) != txs || h.EmittedCount() != txs {
		t.Fatalf("fired %d, EmittedCount %d, want %d", len(fired), h.EmittedCount(), txs)
	}
	for num, n := range fired {
		if n != 1 {
			t.Fatalf("tx %d fired %d times", num, n)
		}
		if h.state[num] != emittedState {
			t.Fatalf("tx %d emitted, but its index word is %d", num, h.state[num])
		}
	}
	if h.UnnumberedCount() != 0 || len(h.unnumbered) != 0 {
		t.Fatalf("numbered events took the unnumbered path: %d by ID", h.UnnumberedCount())
	}
	// One transaction was pending at a time, so every one reused the slot
	// the last one freed.
	if len(h.slab) != 1 || len(h.free) != 1 {
		t.Fatalf("slab holds %d slots, %d free; want the 1 every transaction reuses", len(h.slab), len(h.free))
	}
	if h.slab[0].event != (Event{}) {
		t.Fatal("a freed slab slot still holds its event")
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

// TestHubCommittedAllocs pins that a warm hub allocates nothing per report
// of a numbered event: a finalized transaction's slab slot is reused by the
// next one, and its number indexes a slice the hub grows by doubling, which
// the measured rounds stay inside. Every round ends with a late duplicate.
func TestHubCommittedAllocs(t *testing.T) {
	const nodes = 4
	h := NewHub(nodes)
	fired := 0
	h.Subscribe("c", func(Event) { fired++ })
	handles := make([]*HubNode, nodes)
	for i := range handles {
		handles[i] = h.Node(fmt.Sprintf("n%d", i))
	}
	id := crypto.SumString("tx")
	next := 0
	round := func() {
		next++
		ev := Event{TxID: id, Num: uint64(next), Client: "c", Committed: true, ValidOK: true}
		for _, n := range handles {
			n.Committed(ev, time.Unix(int64(next), 0))
		}
		handles[0].Committed(ev, time.Unix(int64(next), 1)) // a late duplicate
	}
	for range 256 {
		round()
	}
	// The index holds 1024 numbers after the warm-up; the 501 runs below
	// (one of them AllocsPerRun's own warm-up) stay inside it.
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Fatalf("a round of %d reports allocates %v times, want 0", nodes+1, n)
	}
	if fired != next || h.PendingCount() != 0 || len(h.state) != 1024 {
		t.Fatalf("fired %d of %d, pending %d, index of %d numbers", fired, next, h.PendingCount(), len(h.state))
	}
}
