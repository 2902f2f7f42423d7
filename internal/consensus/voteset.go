package consensus

// PeerIndex resolves a validator set's names to dense indices: position in
// the configured list. An engine builds it once and addresses its per-peer
// state (vote sets, replication cursors) by index from then on.
type PeerIndex map[string]int

// NewPeerIndex indexes names by position.
func NewPeerIndex(names []string) PeerIndex {
	p := make(PeerIndex, len(names))
	for i, name := range names {
		p[name] = i
	}
	return p
}

// Of returns name's index, or -1 for a name outside the set — which no
// VoteSet accepts, so a non-member's vote is never counted.
func (p PeerIndex) Of(name string) int {
	if i, ok := p[name]; ok {
		return i
	}
	return -1
}

// VoteSet is a set of peer indices in [0, n) with a maintained count: what
// a quorum check needs of "who voted", without a map write per vote. The
// zero value holds no peers; size it with NewVoteSet.
type VoteSet struct {
	words []uint64
	n     int
	count int
}

// NewVoteSet returns an empty set over n peers.
func NewVoteSet(n int) VoteSet {
	return VoteSet{words: make([]uint64, (n+63)/64), n: n}
}

// Add records peer i's vote and reports whether it was counted: a repeated
// vote and an index outside [0, n) are not.
func (s *VoteSet) Add(i int) bool {
	if i < 0 || i >= s.n || s.Has(i) {
		return false
	}
	s.words[i/64] |= 1 << (i % 64)
	s.count++
	return true
}

// Has reports whether peer i voted.
func (s *VoteSet) Has(i int) bool {
	return i >= 0 && i < s.n && s.words[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of distinct voters.
func (s *VoteSet) Count() int { return s.count }

// Clear empties the set, keeping its size.
func (s *VoteSet) Clear() {
	clear(s.words)
	s.count = 0
}

// VoteSetAt returns the set kept under key, creating it empty over n peers:
// the engines' per-round and per-block vote tables.
func VoteSetAt[K comparable](sets map[K]*VoteSet, key K, n int) *VoteSet {
	set, ok := sets[key]
	if !ok {
		vs := NewVoteSet(n)
		set = &vs
		sets[key] = set
	}
	return set
}
