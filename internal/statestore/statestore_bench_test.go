package statestore

import (
	"fmt"
	"testing"
)

// kvKeys returns n KeyValue keys k0 … k(n-1).
func kvKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Name: fmt.Sprintf("k%d", i)}
	}
	return keys
}

func BenchmarkKVSet(b *testing.B) {
	s := NewKVStore()
	keys := kvKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(keys[i%len(keys)], "v", Version{BlockNum: uint64(i)})
	}
}

func BenchmarkKVGet(b *testing.B) {
	s := NewKVStore()
	keys := kvKeys(4096)
	for _, k := range keys {
		s.Set(k, "v", Version{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkSharedIndexGetSet is a BankingApp network's state work: four
// replicas on one index. One op is one account on every replica: create its
// two balances, then read and rewrite its checking balance. Every 20k
// accounts the network starts again empty, so the index and the pages keep
// growing as they do in a run.
func BenchmarkSharedIndexGetSet(b *testing.B) {
	const replicas, accounts = 4, 20000
	keys := make([]Key, 0, 2*accounts)
	for i := 0; i < accounts; i++ {
		id := fmt.Sprintf("acc-%d", i)
		keys = append(keys, Key{Name: id, Part: Checking}, Key{Name: id, Part: Savings})
	}
	stores := make([]*KVStore, replicas)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % accounts
		if a == 0 {
			idx := NewIndex()
			for r := range stores {
				stores[r] = idx.NewKVStore()
			}
		}
		checking, savings := keys[2*a], keys[2*a+1]
		for _, s := range stores {
			s.Set(checking, "100", Version{TxNum: a})
			s.Set(savings, "0", Version{TxNum: a})
			if _, ok := s.Get(checking); !ok {
				b.Fatal("missing key")
			}
			s.Set(checking, "90", Version{BlockNum: 1, TxNum: a})
		}
	}
}

func BenchmarkRWSetEndorseValidateCommit(b *testing.B) {
	// The full Fabric per-transaction state pipeline: record reads and
	// writes, validate, commit.
	a, c := Key{Name: "a", Part: Checking}, Key{Name: "b", Part: Checking}
	s := NewKVStore()
	s.Set(a, "100", Version{})
	s.Set(c, "0", Version{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := NewRWSet()
		rw.Read(a, s)
		rw.Read(c, s)
		rw.Write(a, "90")
		rw.Write(c, "10")
		if err := rw.Validate(s); err != nil {
			b.Fatal(err)
		}
		rw.Commit(s, Version{BlockNum: uint64(i) + 1})
	}
}

// BenchmarkRWSetValidateConflicting measures Validate on read sets that
// contend with a writer — the hot path of every Fabric commit under the
// contention workload plane. Half the validations see stale versions (the
// writer advanced the key), half see fresh ones, so both the conflict and
// the clean exit are exercised.
func BenchmarkRWSetValidateConflicting(b *testing.B) {
	s := NewKVStore()
	keys := kvKeys(64)
	for _, k := range keys {
		s.Set(k, "v", Version{})
	}
	// Endorse two read-write sets over the same keys: rwFresh re-records
	// after every write (always valid), rwStale keeps version-0 reads.
	rwStale := NewRWSet()
	for _, k := range keys[:4] {
		rwStale.Read(k, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	conflicts := 0
	for i := 0; i < b.N; i++ {
		key := keys[i%4]
		if i%2 == 0 {
			// Writer advances one of the read keys.
			s.Set(key, "v2", Version{BlockNum: uint64(i) + 1})
		}
		rwFresh := NewRWSet()
		rwFresh.Read(key, s)
		if err := rwFresh.Validate(s); err != nil {
			b.Fatal("fresh read set must validate")
		}
		if err := rwStale.Validate(s); err != nil {
			conflicts++
		}
	}
	if b.N > 4 && conflicts == 0 {
		b.Fatal("stale read set never conflicted")
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
}
