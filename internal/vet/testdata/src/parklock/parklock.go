// Fixture for the parklock analyzer: parking on a clock primitive while
// a sync mutex acquired in the same function is held — the re-entrant
// deadlock shape fixed twice already (gate backlog replay in PR 7,
// DurableGate latency charging in PR 8).
package fixture

import (
	"sync"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/systems"
)

type node struct {
	mu    sync.Mutex
	state sync.RWMutex
	inbox *clock.Mailbox[int]
	stop  *clock.Gate
}

func (n *node) sendWhileLocked() {
	n.mu.Lock()
	n.inbox.Send(1, n.stop) // want `Mailbox.Send can park while mutex "n.mu"`
	n.mu.Unlock()
}

func (n *node) deferredUnlock(c *clock.AutoVirtual) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inbox.Send(2, n.stop) // want `Mailbox.Send can park while mutex "n.mu"`
}

func (n *node) awaitUnderRLock(c *clock.AutoVirtual) {
	n.state.RLock()
	clock.Await(c, n.stop) // want `clock.Await can park while mutex "n.state"`
	n.state.RUnlock()
}

func (n *node) sleepUnderLock(c *clock.AutoVirtual) {
	n.mu.Lock()
	c.Sleep(1) // want `AutoVirtual.Sleep can park while mutex "n.mu"`
	n.mu.Unlock()
}

func gateWhileLocked(d *systems.DurableGate, mu *sync.Mutex) {
	mu.Lock()
	d.Do(func() {}) // want `DurableGate.Do can park while mutex "mu"`
	mu.Unlock()
}

func commitToWhileLocked(d *systems.DurableGate, mu *sync.Mutex) {
	mu.Lock()
	systems.CommitTo(d, 1, 0, func(int) {})      // want `systems.CommitTo can park while mutex "mu"`
	systems.CommitTo[int](d, 1, 0, func(int) {}) // want `systems.CommitTo can park while mutex "mu"`
	mu.Unlock()
}

// Release before parking: no findings.
func (n *node) releasedFirst(c *clock.AutoVirtual) {
	n.mu.Lock()
	n.mu.Unlock()
	clock.Await(c, n.stop)
}

// An unlock on the early-return path does not release the fall-through
// path, which still holds the mutex when it parks.
func (n *node) branchUnlock(c *clock.AutoVirtual, early bool) {
	n.mu.Lock()
	if early {
		n.mu.Unlock()
		return
	}
	clock.Await(c, n.stop) // want `clock.Await can park while mutex "n.mu"`
	n.mu.Unlock()
}

// Non-parking mailbox operations are fine under a lock.
func (n *node) tryOpsAreFine() {
	n.mu.Lock()
	n.inbox.TrySend(2)
	_ = n.inbox.Len()
	n.mu.Unlock()
}
