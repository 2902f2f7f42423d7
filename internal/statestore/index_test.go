package statestore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

// TestSharedIndexStoresMatchMaps drives two to four stores on one Index
// through seeded random Get and Set sequences, each store next to its own
// reference map. Every read and every Len agrees with the store's map: a key
// one store creates takes a slot on the index but stays absent from the
// others until they write it. The key space spans several pages, so stores
// that write only part of it leave pages unallocated between written ones.
func TestSharedIndexStoresMatchMaps(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := NewIndex()
		stores := make([]*KVStore, 2+rng.Intn(3))
		refs := make([]map[Key]VersionedValue, len(stores))
		for i := range stores {
			stores[i], refs[i] = idx.NewKVStore(), map[Key]VersionedValue{}
		}
		names := 3*pageSize + rng.Intn(pageSize)
		for step := 0; step < 20000; step++ {
			i := rng.Intn(len(stores))
			key := Key{Name: fmt.Sprintf("k%d", rng.Intn(names)), Part: uint8(rng.Intn(3))}
			if rng.Intn(3) == 0 {
				v := VersionedValue{Value: fmt.Sprintf("v%d", step), Version: Version{BlockNum: uint64(step), TxNum: i}}
				stores[i].Set(key, v.Value, v.Version)
				refs[i][key] = v
				continue
			}
			got, ok := stores[i].Get(key)
			want, wantOK := refs[i][key]
			if ok != wantOK || got != want {
				t.Fatalf("seed %d step %d: store %d Get(%v) = (%+v, %v), its map holds (%+v, %v)",
					seed, step, i, key, got, ok, want, wantOK)
			}
			if stores[i].Len() != len(refs[i]) {
				t.Fatalf("seed %d step %d: store %d Len = %d, its map holds %d", seed, step, i, stores[i].Len(), len(refs[i]))
			}
		}
		for i := range stores {
			for key, want := range refs[i] {
				if got, ok := stores[i].Get(key); !ok || got != want {
					t.Fatalf("seed %d: store %d Get(%v) = (%+v, %v), want %+v", seed, i, key, got, ok, want)
				}
			}
		}
	}
}

// TestKeyCreatedOnOneStoreIsAbsentOnOthers: the shared index knows the key
// once a store writes it; the other stores still hold nothing for it.
func TestKeyCreatedOnOneStoreIsAbsentOnOthers(t *testing.T) {
	idx := NewIndex()
	a, b := idx.NewKVStore(), idx.NewKVStore()
	k := Key{Name: "x", Part: Savings}
	a.Set(k, "1", Version{BlockNum: 1})
	if _, ok := b.Get(k); ok || b.Len() != 0 {
		t.Fatalf("b holds a key only a wrote: Len = %d", b.Len())
	}
	rw := NewRWSet()
	if _, ok := rw.Read(k, b); ok {
		t.Fatal("b's read set saw a's write")
	}
	if err := rw.Validate(b); err != nil {
		t.Fatalf("a read of a key absent on b went stale on b: %v", err)
	}
	if err := rw.Validate(a); err == nil {
		t.Fatal("a read of a key absent on b validated against a, which holds it")
	}
	b.Set(k, "2", Version{BlockNum: 2})
	if got, _ := a.Get(k); got.Value != "1" || a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("b's write reached a: %+v", got)
	}
}

// TestStoreAccessAllocatesNothing pins Get and Set of a key the store
// already holds, and a Get of one it does not, at zero allocations: one
// lookup on the shared index and a page access.
func TestStoreAccessAllocatesNothing(t *testing.T) {
	idx := NewIndex()
	s := idx.NewKVStore()
	other := idx.NewKVStore()
	keys := []Key{{Name: "k"}, {Name: "a", Part: Checking}, {Name: "a", Part: Savings}}
	for _, k := range keys {
		s.Set(k, "v", Version{})
	}
	other.Set(Key{Name: "only-other"}, "v", Version{})
	for _, k := range keys {
		if n := testing.AllocsPerRun(100, func() { s.Set(k, "w", Version{BlockNum: 1}) }); n != 0 {
			t.Errorf("Set(%v) of a held key allocates %v times, want 0", k, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = s.Get(k) }); n != 0 {
			t.Errorf("Get(%v) allocates %v times, want 0", k, n)
		}
	}
	for _, k := range []Key{{Name: "missing"}, {Name: "only-other"}} {
		if n := testing.AllocsPerRun(100, func() { _, _ = s.Get(k) }); n != 0 {
			t.Errorf("Get(%v) of an absent key allocates %v times, want 0", k, n)
		}
	}
}

// TestSharedIndexAcrossActors: the replicas of a network are events on
// one clock, each writing its own store on the network's one index,
// interleaved between their waits. Run under -race, this holds that the
// clock's one event loop is all the sharing needs; each store ends with the keys it
// wrote, at its own versions.
func TestSharedIndexAcrossActors(t *testing.T) {
	const actors, writes, names = 4, 300, 40
	clk := clocktest.New(t)
	idx := NewIndex()
	stores := make([]*KVStore, actors)
	for a := range stores {
		stores[a] = idx.NewKVStore()
	}
	key := func(i int) Key { return Key{Name: fmt.Sprintf("k%d", i%names), Part: uint8(i % 3)} }
	actorNames := make([]string, actors)
	for a := range actorNames {
		actorNames[a] = fmt.Sprintf("replica-%d", a)
	}
	next := make([]int, actors)     // each replica's next write
	written := make([]bool, actors) // the write at next waits for its check
	for a := range next {
		next[a] = a
	}
	clocktest.Steps(t, clk, time.Minute, "replicas writing", actorNames, func(a int) (time.Duration, bool) {
		s, i := stores[a], next[a]
		if written[a] {
			if got, ok := s.Get(key(i)); !ok || got.Version.TxNum != a {
				t.Errorf("replica %d: Get(%v) = (%+v, %v) right after its own write", a, key(i), got, ok)
			}
			written[a] = false
			i += 1 + a
			next[a] = i
		}
		if i >= writes {
			return 0, true
		}
		s.Set(key(i), fmt.Sprint(i), Version{BlockNum: uint64(i), TxNum: a})
		written[a] = true
		return time.Duration(1+a) * time.Microsecond, false
	})
	for a, s := range stores {
		want := map[Key]VersionedValue{}
		for i := a; i < writes; i += 1 + a {
			want[key(i)] = VersionedValue{Value: fmt.Sprint(i), Version: Version{BlockNum: uint64(i), TxNum: a}}
		}
		if s.Len() != len(want) {
			t.Errorf("store %d holds %d keys, wrote %d", a, s.Len(), len(want))
		}
		for k, v := range want {
			if got, ok := s.Get(k); !ok || got != v {
				t.Errorf("store %d: Get(%v) = (%+v, %v), want %+v", a, k, got, ok, v)
			}
		}
	}
}
