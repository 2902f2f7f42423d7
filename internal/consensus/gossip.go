package consensus

import "github.com/coconut-bench/coconut/internal/crypto"

// GossipIndex records, for one network, which nodes have admitted each
// gossiped message: the de-duplication every node of a gossip protocol
// keeps, held once per network instead of once per node. A node is its
// dense index in the network (its position in the configured list).
//
// Nodes 0–63 share one inline word per message, so an entry of a network of
// up to 64 nodes costs nothing beyond map growth; nodes from 64 up spill to
// a second map that smaller networks never touch. Only the clock's
// event loop touches the index, so it takes no lock.
type GossipIndex struct {
	low   map[crypto.Hash]uint64   // bit i: node i < 64 admitted the message
	spill map[crypto.Hash][]uint64 // word w, bit i: node 64(w+1)+i admitted it
}

// NewGossipIndex returns an empty index.
func NewGossipIndex() *GossipIndex {
	return &GossipIndex{low: make(map[crypto.Hash]uint64)}
}

// Admit records that node admitted id and reports whether this is the
// first time it did. node must not be negative.
func (g *GossipIndex) Admit(id crypto.Hash, node int) bool {
	if node < 64 {
		bits, bit := g.low[id], uint64(1)<<node
		if bits&bit != 0 {
			return false
		}
		g.low[id] = bits | bit
		return true
	}
	if g.spill == nil {
		g.spill = make(map[crypto.Hash][]uint64)
	}
	words := g.spill[id]
	w, bit := node/64-1, uint64(1)<<(node%64)
	if w >= len(words) {
		words = append(words, make([]uint64, w+1-len(words))...)
		g.spill[id] = words
	}
	if words[w]&bit != 0 {
		return false
	}
	words[w] |= bit
	return true
}

// Has reports whether node has admitted id.
func (g *GossipIndex) Has(id crypto.Hash, node int) bool {
	if node < 64 {
		return g.low[id]&(uint64(1)<<node) != 0
	}
	words := g.spill[id]
	w := node/64 - 1
	return w < len(words) && words[w]&(uint64(1)<<(node%64)) != 0
}
