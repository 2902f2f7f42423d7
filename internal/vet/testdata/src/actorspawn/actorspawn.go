// Fixture for the actorspawn analyzer: in clock-actor packages there is no
// goroutine of their own; work that waits is a clock.Event or Loop the
// clock runs itself. Any go statement — bare, or hand-announced with
// clock.Fork and clock.RegisterForked — is a finding, and so is every
// sync.Mutex, sync.RWMutex and sync/atomic.
package fixture

import (
	"sync"
	syn "sync"
	"sync/atomic" // want `sync/atomic in a clock-actor package`

	"github.com/coconut-bench/coconut/internal/clock"
)

func worker(c *clock.AutoVirtual) { c.Sleep(1) }

func bare(c *clock.AutoVirtual) {
	go worker(c) // want `go statement in a clock-actor package`
}

func bareClosure(c *clock.AutoVirtual) {
	go func() { // want `go statement in a clock-actor package`
		worker(c)
	}()
}

// A hand-written Fork no longer sanctions the spawns after it.
func forked(c *clock.AutoVirtual) {
	clock.Fork(c, 1)
	go worker(c) // want `go statement in a clock-actor package`
}

func forkedLoop(c *clock.AutoVirtual, n int) {
	clock.Fork(c, n)
	for i := 0; i < n; i++ {
		go worker(c) // want `go statement in a clock-actor package`
	}
}

// Nor does a closure that registers itself.
func selfRegistering(c *clock.AutoVirtual) {
	go func() { // want `go statement in a clock-actor package`
		h := clock.RegisterForked(c, "w")
		defer h.Close()
		worker(c)
	}()
}

// Under the token a lock is never contended, so naming its type is a
// finding wherever it happens: a field, a variable, a type alias, an
// allocation, through an aliased import too.
type guarded struct {
	mu sync.Mutex // want `sync.Mutex in a clock-actor package`
	n  int
}

var table sync.RWMutex // want `sync.RWMutex in a clock-actor package`

type alias = syn.Mutex // want `sync.Mutex in a clock-actor package`

func fresh() any {
	return new(syn.Mutex) // want `sync.Mutex in a clock-actor package`
}

// So is an atomic counter, through its import.
func counted(c *atomic.Int64) int64 { return c.Add(1) }

// A pool is no lock: a free list the actors share.
var pool = sync.Pool{New: func() any { return new(guarded) }}
