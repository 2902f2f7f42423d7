package systems

import "github.com/coconut-bench/coconut/internal/crypto"

// This file keeps the hub's path for events that carry no transaction
// number (Event.Num == 0): the frozen benchmark ledger's hub probe
// (bench/), whose source is frozen so that its numbers compare across
// versions, builds its events from IDs alone, and so do hand-built test
// events. Drivers copy Transaction.Num into every event they report, so no
// driver takes this path; TestHubNumbersEveryDriverEvent checks that
// UnnumberedCount stays 0 for all seven systems.

// unnumberedEntry numbers a transaction by its ID, the first time it is
// reported, and returns its state.
func (h *Hub) unnumberedEntry(id crypto.Hash) *int32 {
	k, ok := h.byID[id]
	if !ok {
		if h.byID == nil {
			h.byID = make(map[crypto.Hash]int32)
		}
		k = int32(len(h.unnumbered))
		h.byID[id] = k
		h.unnumbered = append(h.unnumbered, 0)
	}
	return &h.unnumbered[k]
}

// UnnumberedCount reports how many transactions the hub has numbered by ID
// because their events carried no number. Drivers number every event, so
// in a run it stays 0.
func (h *Hub) UnnumberedCount() int {
	return len(h.byID)
}
