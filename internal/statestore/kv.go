// Package statestore implements the world state backing the simulated
// systems' interface execution layers: a versioned key-value store with
// MVCC read-set validation (Fabric's execute-order-validate pipeline).
// Keys are typed (Key), and the stores of one network's replicas share one
// Index that slots each key once. Accounts live in that store through the
// BankingApp IEL (internal/iel), or, for Corda, as UTXO states.
package statestore

import (
	"errors"
	"fmt"
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

// pageSize is how many slots one page of a store's column holds.
const pageSize = 256

// cell is one slot of a store's column.
type cell struct {
	value   string
	ver     Version
	present bool
}

// page is a fixed-size run of a store's column; pages are never copied as
// the column grows.
type page [pageSize]cell

// KVStore is a versioned key-value world state: a column of cells indexed
// by the slots of its Index, allocated a page at a time where the store
// writes. Stores on one Index share its keys but not their values: a key
// one store holds is absent from another until that one writes it. Only
// the actor holding the clock's token touches a store, so it takes no lock.
type KVStore struct {
	index *Index
	pages []*page
	n     int
}

// NewKVStore creates an empty store on a private index.
func NewKVStore() *KVStore { return NewIndex().NewKVStore() }

// cell returns the store's cell at slot i, nil where no page holds it yet.
func (s *KVStore) cell(i slot) *cell {
	if p := int(i / pageSize); p < len(s.pages) && s.pages[p] != nil {
		return &s.pages[p][i%pageSize]
	}
	return nil
}

// Get returns the value and version for key.
func (s *KVStore) Get(key Key) (VersionedValue, bool) {
	if i, ok := s.index.lookup(key); ok {
		if c := s.cell(i); c != nil && c.present {
			return VersionedValue{Value: c.value, Version: c.ver}, true
		}
	}
	return VersionedValue{}, false
}

// Set writes key at the given version.
func (s *KVStore) Set(key Key, value string, ver Version) {
	i := s.index.assign(key)
	p := int(i / pageSize)
	for len(s.pages) <= p {
		s.pages = append(s.pages, nil)
	}
	if s.pages[p] == nil {
		s.pages[p] = new(page)
	}
	c := &s.pages[p][i%pageSize]
	if !c.present {
		c.present = true
		s.n++
	}
	c.value, c.ver = value, ver
}

// Len returns the number of keys.
func (s *KVStore) Len() int {
	return s.n
}

// rwInline is how many reads and how many writes an RWSet holds before it
// allocates: one operation touches at most three keys (Amalgamate's).
const rwInline = 3

type readEntry struct {
	key Key
	ver Version
}

type writeEntry struct {
	key   Key
	value string
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

// Read captures the observed version of key. Missing keys record the zero
// Version, matching Fabric's nil-version convention.
func (rw *RWSet) Read(key Key, s *KVStore) (string, bool) {
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

// Write stages a write; a later write to the same key replaces it.
func (rw *RWSet) Write(key Key, value string) {
	if w := rw.staged(key); w != nil {
		w.value = value
		return
	}
	if rw.writes == nil {
		rw.writes = rw.writeBuf[:0]
	}
	rw.writes = append(rw.writes, writeEntry{key, value})
}

// RecordRead is Read of the KeyValue key name.
func (rw *RWSet) RecordRead(name string, s *KVStore) (string, bool) {
	return rw.Read(Key{Name: name}, s)
}

// RecordWrite is Write of the KeyValue key name.
func (rw *RWSet) RecordWrite(name, value string) { rw.Write(Key{Name: name}, value) }

// Written returns the value staged for key, if any.
func (rw *RWSet) Written(key Key) (string, bool) {
	if w := rw.staged(key); w != nil {
		return w.value, true
	}
	return "", false
}

func (rw *RWSet) staged(key Key) *writeEntry {
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

// Validate checks the read set against the current world state. A key read
// while absent stays valid while it is absent, since its version then is
// still the zero Version it was read at.
func (rw *RWSet) Validate(s *KVStore) error {
	for _, r := range rw.reads {
		if cur, _ := s.Get(r.key); cur.Version != r.ver {
			return fmt.Errorf("%w: key %q read at %+v, now %+v", ErrMVCCConflict, r.key.String(), r.ver, cur.Version)
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
