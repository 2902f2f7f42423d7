package systems

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/crypto"
)

// BenchmarkHubCommit drives a full commit cycle (every node reports every
// transaction) through a hub from GOMAXPROCS goroutines, one per node,
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

	b.ResetTimer()
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		node := handles[n]
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := time.Unix(0, 0)
			for _, id := range ids {
				node.Committed(Event{TxID: id, Client: "c"}, at)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if got := h.EmittedCount(); got != b.N {
		b.Fatalf("emitted %d, want %d", got, b.N)
	}
}
