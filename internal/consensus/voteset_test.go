package consensus

import (
	"math/rand"
	"testing"
)

// TestVoteSetMatchesMapReference drives a VoteSet and a map[int]bool with the
// same votes — duplicates, indices outside [0, n), clears in between — at
// sizes on both sides of a word boundary.
func TestVoteSetMatchesMapReference(t *testing.T) {
	for _, n := range []int{1, 4, 64, 65, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		set := NewVoteSet(n)
		ref := map[int]bool{}
		fullest := 0
		for step := 0; step < 20*n+50; step++ {
			if step%(7*n+13) == 7*n {
				set.Clear()
				clear(ref)
			}
			i := rng.Intn(n+8) - 4 // four indices out of range on either side
			fresh := i >= 0 && i < n && !ref[i]
			if fresh {
				ref[i] = true
			}
			if got := set.Add(i); got != fresh {
				t.Fatalf("n=%d step %d: Add(%d) = %v, want %v", n, step, i, got, fresh)
			}
			fullest = max(fullest, set.Count())
			if set.Count() != len(ref) {
				t.Fatalf("n=%d step %d: Count = %d, reference holds %d", n, step, set.Count(), len(ref))
			}
			for j := -4; j < n+4; j++ {
				if set.Has(j) != ref[j] {
					t.Fatalf("n=%d step %d: Has(%d) = %v, reference says %v", n, step, j, set.Has(j), ref[j])
				}
			}
		}
		if fullest < (n+1)/2 {
			t.Fatalf("n=%d: the walk never held more than %d votes", n, fullest)
		}
	}
}

func TestPeerIndex(t *testing.T) {
	p := NewPeerIndex([]string{"a", "b", "c"})
	for i, name := range []string{"a", "b", "c"} {
		if got := p.Of(name); got != i {
			t.Errorf("Of(%q) = %d, want %d", name, got, i)
		}
	}
	if got := p.Of("a-gossip"); got != -1 {
		t.Errorf("Of(non-member) = %d, want -1", got)
	}
	sets := map[uint64]*VoteSet{}
	VoteSetAt(sets, 3, 3).Add(p.Of("b"))
	VoteSetAt(sets, 3, 3).Add(p.Of("a-gossip"))
	if got := VoteSetAt(sets, 3, 3).Count(); got != 1 || len(sets) != 1 {
		t.Errorf("round 3 holds %d votes in %d sets, want b's alone in one", got, len(sets))
	}
}
