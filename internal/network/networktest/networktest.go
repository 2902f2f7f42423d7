// Package networktest cuts transport links in tests the way a run's fault
// schedule does: by degrading them.
package networktest

import "github.com/coconut-bench/coconut/internal/network"

// Disconnect degrades every link between name and the other endpoints
// registered on tr to full loss, in both directions. Sends still succeed
// and the messages vanish in flight; tr.HealAll undoes it.
func Disconnect(tr *network.Transport, name string) {
	for _, other := range tr.Endpoints() {
		if other != name {
			tr.DegradeLink(name, other, 0, 1)
			tr.DegradeLink(other, name, 0, 1)
		}
	}
}
