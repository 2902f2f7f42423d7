// Package statestore implements the world state backing the simulated
// systems' interface execution layers: a versioned key-value store with
// MVCC read-set validation (Fabric's execute-order-validate pipeline).
// Accounts live in that store through the BankingApp IEL (internal/iel),
// or, for Corda, as UTXO states.
package statestore

import (
	"errors"
	"fmt"
	"sync"
)

// Version identifies the commit that last wrote a key, in Fabric style:
// block number plus transaction offset within the block.
type Version struct {
	BlockNum uint64
	TxNum    int
}

// Less orders versions by block then tx offset.
func (v Version) Less(o Version) bool {
	if v.BlockNum != o.BlockNum {
		return v.BlockNum < o.BlockNum
	}
	return v.TxNum < o.TxNum
}

// VersionedValue couples a value with the version that wrote it.
type VersionedValue struct {
	Value   string
	Version Version
}

// KVStore is a thread-safe versioned key-value world state.
type KVStore struct {
	mu   sync.RWMutex
	data map[string]VersionedValue
}

// NewKVStore creates an empty store.
func NewKVStore() *KVStore {
	return &KVStore{data: make(map[string]VersionedValue)}
}

// Get returns the value and version for key.
func (s *KVStore) Get(key string) (VersionedValue, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// Set writes key at the given version.
func (s *KVStore) Set(key, value string, ver Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = VersionedValue{Value: value, Version: ver}
}

// Delete removes a key.
func (s *KVStore) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
}

// Len returns the number of keys.
func (s *KVStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// rwInline is how many reads and how many writes an RWSet holds before it
// allocates: the paper's operations touch one to four keys.
const rwInline = 4

type readEntry struct {
	key string
	ver Version
}

type writeEntry struct {
	key, value string
}

// RWSet is the endorsement result of Fabric's execute phase: the read
// versions and proposed writes produced by simulating a transaction against
// the current world state. Both sets keep their keys in first-touch order, so
// Validate names the same stale key and Commit writes in the same order on
// every peer and in every run. The zero value is an empty set; a set in use
// must not be copied (its slices point into its own buffers).
type RWSet struct {
	reads    []readEntry
	writes   []writeEntry
	readBuf  [rwInline]readEntry
	writeBuf [rwInline]writeEntry
}

// NewRWSet returns an empty read-write set.
func NewRWSet() *RWSet { return &RWSet{} }

// RecordRead captures the observed version of key. Missing keys record the
// zero Version, matching Fabric's nil-version convention.
func (rw *RWSet) RecordRead(key string, s *KVStore) (string, bool) {
	v, ok := s.Get(key) // the zero VersionedValue when missing
	for i := range rw.reads {
		if rw.reads[i].key == key {
			rw.reads[i].ver = v.Version
			return v.Value, ok
		}
	}
	if rw.reads == nil {
		rw.reads = rw.readBuf[:0]
	}
	rw.reads = append(rw.reads, readEntry{key, v.Version})
	return v.Value, ok
}

// RecordWrite stages a write; a later write to the same key replaces it.
func (rw *RWSet) RecordWrite(key, value string) {
	if w := rw.staged(key); w != nil {
		w.value = value
		return
	}
	if rw.writes == nil {
		rw.writes = rw.writeBuf[:0]
	}
	rw.writes = append(rw.writes, writeEntry{key, value})
}

// Written returns the value staged for key, if any.
func (rw *RWSet) Written(key string) (string, bool) {
	if w := rw.staged(key); w != nil {
		return w.value, true
	}
	return "", false
}

func (rw *RWSet) staged(key string) *writeEntry {
	for i := range rw.writes {
		if rw.writes[i].key == key {
			return &rw.writes[i]
		}
	}
	return nil
}

// ErrMVCCConflict is returned by Validate when a read version is stale —
// Fabric's MVCC_READ_CONFLICT. The paper's BankingApp-SendPayment
// benchmark provokes exactly this: overwriting transactions land in the
// same block, the first commits, the rest fail validation but are still
// appended to the chain (paper §5.4).
var ErrMVCCConflict = errors.New("statestore: mvcc read conflict")

// Validate checks the read set against the current world state.
func (rw *RWSet) Validate(s *KVStore) error {
	for _, r := range rw.reads {
		cur, ok := s.Get(r.key)
		switch {
		case !ok && r.ver == Version{}:
			// Key still absent: read remains valid.
		case !ok:
			return fmt.Errorf("%w: key %q deleted since read", ErrMVCCConflict, r.key)
		case cur.Version != r.ver:
			return fmt.Errorf("%w: key %q read at %+v, now %+v", ErrMVCCConflict, r.key, r.ver, cur.Version)
		}
	}
	return nil
}

// Commit applies the write set at the given version. Callers must have
// validated first.
func (rw *RWSet) Commit(s *KVStore, ver Version) {
	for _, w := range rw.writes {
		s.Set(w.key, w.value, ver)
	}
}
