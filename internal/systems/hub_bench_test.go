package systems

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/crypto"
)

// BenchmarkHubCommit drives a full commit cycle (every node reports every
// transaction) through a hub from GOMAXPROCS node actors on one clock,
// mimicking the per-validator commit loops of the system drivers.
func BenchmarkHubCommit(b *testing.B) {
	nodes := runtime.GOMAXPROCS(0)
	if nodes < 2 {
		nodes = 2
	}
	h := NewHub(nodes)
	h.Subscribe("c", func(Event) {})

	ids := make([]crypto.Hash, b.N)
	for i := range ids {
		ids[i] = crypto.SumString(fmt.Sprintf("tx-%d", i))
	}
	handles := make([]*HubNode, nodes)
	for n := range handles {
		handles[n] = h.Node(fmt.Sprintf("node-%d", n))
	}

	names := make([]string, nodes)
	for n := range names {
		names[n] = fmt.Sprintf("node-%d", n)
	}
	clk := clocktest.New(b)
	b.ResetTimer()
	clocktest.Steps(b, clk, time.Second, "nodes committing", names, func(n int) (time.Duration, bool) {
		at := time.Unix(0, 0)
		for _, id := range ids {
			handles[n].Committed(Event{TxID: id, Client: "c"}, at)
		}
		return 0, true
	})
	b.StopTimer()
	if got := h.EmittedCount(); got != b.N {
		b.Fatalf("emitted %d, want %d", got, b.N)
	}
}
