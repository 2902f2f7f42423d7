package statestore

import (
	"fmt"
	"testing"
)

func BenchmarkKVSet(b *testing.B) {
	s := NewKVStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(fmt.Sprintf("k%d", i%4096), "v", Version{BlockNum: uint64(i)})
	}
}

func BenchmarkKVGet(b *testing.B) {
	s := NewKVStore()
	for i := 0; i < 4096; i++ {
		s.Set(fmt.Sprintf("k%d", i), "v", Version{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i%4096)); !ok {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkRWSetEndorseValidateCommit(b *testing.B) {
	// The full Fabric per-transaction state pipeline: record reads and
	// writes, validate, commit.
	s := NewKVStore()
	s.Set("acct/a/checking", "100", Version{})
	s.Set("acct/b/checking", "0", Version{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := NewRWSet()
		rw.RecordRead("acct/a/checking", s)
		rw.RecordRead("acct/b/checking", s)
		rw.RecordWrite("acct/a/checking", "90")
		rw.RecordWrite("acct/b/checking", "10")
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
	const keys = 64
	s := NewKVStore()
	for i := 0; i < keys; i++ {
		s.Set(fmt.Sprintf("k%d", i), "v", Version{})
	}
	// Endorse two read-write sets over the same keys: rwFresh re-records
	// after every write (always valid), rwStale keeps version-0 reads.
	rwStale := NewRWSet()
	for i := 0; i < 4; i++ {
		rwStale.RecordRead(fmt.Sprintf("k%d", i), s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	conflicts := 0
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i%4)
		if i%2 == 0 {
			// Writer advances one of the read keys.
			s.Set(key, "v2", Version{BlockNum: uint64(i) + 1})
		}
		rwFresh := NewRWSet()
		rwFresh.RecordRead(key, s)
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
