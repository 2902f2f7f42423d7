package statestore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// kv is the KeyValue key name.
func kv(name string) Key { return Key{Name: name} }

func TestKVSetGet(t *testing.T) {
	s := NewKVStore()
	if _, ok := s.Get(kv("k")); ok {
		t.Fatal("empty store returned a value")
	}
	s.Set(kv("k"), "v", Version{BlockNum: 1, TxNum: 0})
	got, ok := s.Get(kv("k"))
	if !ok || got.Value != "v" || got.Version.BlockNum != 1 {
		t.Fatalf("Get = (%+v, %v)", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Set(kv("k"), "w", Version{BlockNum: 2})
	if got, _ := s.Get(kv("k")); got.Value != "w" || s.Len() != 1 {
		t.Fatalf("after an overwrite Get = %+v, Len = %d", got, s.Len())
	}
}

func TestVersionLess(t *testing.T) {
	cases := []struct {
		a, b Version
		want bool
	}{
		{Version{1, 0}, Version{2, 0}, true},
		{Version{2, 0}, Version{1, 0}, false},
		{Version{1, 1}, Version{1, 2}, true},
		{Version{1, 2}, Version{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%+v.Less(%+v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRWSetValidCommit(t *testing.T) {
	s := NewKVStore()
	s.Set(kv("k"), "v0", Version{BlockNum: 1})

	rw := NewRWSet()
	val, ok := rw.RecordRead("k", s)
	if !ok || val != "v0" {
		t.Fatalf("RecordRead = (%q, %v)", val, ok)
	}
	rw.RecordWrite("k", "v1")

	if err := rw.Validate(s); err != nil {
		t.Fatalf("validation of fresh read failed: %v", err)
	}
	rw.Commit(s, Version{BlockNum: 2})
	got, _ := s.Get(kv("k"))
	if got.Value != "v1" || got.Version.BlockNum != 2 {
		t.Fatalf("after commit: %+v", got)
	}
}

// TestRWSetFirstTouchOrder: with several stale reads, Validate names the key
// the endorsement touched first — every time, where ranging over a map named
// whichever came up — and a key read or written again keeps its place and
// takes the later value, as the maps did. Twelve keys spill both inline
// arrays.
func TestRWSetFirstTouchOrder(t *testing.T) {
	s := NewKVStore()
	keys := make([]Key, 12)
	for i := range keys {
		// First touch runs against name order, and the parts interleave.
		keys[i] = Key{Name: fmt.Sprintf("k%02d", len(keys)-i), Part: uint8(i % 3)}
		s.Set(keys[i], "v0", Version{BlockNum: 1})
	}
	for run := 0; run < 20; run++ {
		rw := NewRWSet()
		for _, k := range keys {
			rw.Read(k, s)
			rw.Write(k, "first")
		}
		rw.Read(keys[0], s) // touched again: same place
		rw.Write(keys[3], "second")
		if v, ok := rw.Written(keys[3]); !ok || v != "second" {
			t.Fatalf("Written(%s) = (%q, %v), want the later write", keys[3], v, ok)
		}
		if _, ok := rw.Written(kv("never")); ok {
			t.Fatal("Written reports a key nobody wrote")
		}
		if len(rw.reads) != len(keys) || len(rw.writes) != len(keys) {
			t.Fatalf("%d reads, %d writes for %d keys", len(rw.reads), len(rw.writes), len(keys))
		}

		stale := NewKVStore()
		for _, k := range keys {
			stale.Set(k, "v1", Version{BlockNum: 1000}) // every read is stale
		}
		err := rw.Validate(stale)
		if !errors.Is(err, ErrMVCCConflict) || !strings.Contains(err.Error(), `"`+keys[0].String()+`"`) {
			t.Fatalf("run %d: Validate = %v, want a conflict naming the first-read key %s", run, err, keys[0])
		}

		rw.Commit(s, Version{BlockNum: uint64(run + 2)})
		for i, k := range keys {
			want := "first"
			if i == 3 {
				want = "second"
			}
			if got, _ := s.Get(k); got.Value != want || got.Version.BlockNum != uint64(run+2) {
				t.Fatalf("after commit %s = %+v, want %q", k, got, want)
			}
		}
	}
}

func TestRWSetMVCCConflict(t *testing.T) {
	s := NewKVStore()
	s.Set(kv("k"), "v0", Version{BlockNum: 1})

	// Two transactions read the same version; the first to commit
	// invalidates the second — the paper's SendPayment overwrite scenario.
	rw1, rw2 := NewRWSet(), NewRWSet()
	rw1.RecordRead("k", s)
	rw2.RecordRead("k", s)
	rw1.RecordWrite("k", "a")
	rw2.RecordWrite("k", "b")

	if err := rw1.Validate(s); err != nil {
		t.Fatal(err)
	}
	rw1.Commit(s, Version{BlockNum: 2, TxNum: 0})

	err := rw2.Validate(s)
	if !errors.Is(err, ErrMVCCConflict) {
		t.Fatalf("err = %v, want ErrMVCCConflict", err)
	}
}

func TestRWSetMissingKeyReadStaysValid(t *testing.T) {
	s := NewKVStore()
	rw := NewRWSet()
	if _, ok := rw.RecordRead("absent", s); ok {
		t.Fatal("read of missing key reported present")
	}
	if err := rw.Validate(s); err != nil {
		t.Fatalf("phantom-free read failed validation: %v", err)
	}
	// Now someone writes the key: the read becomes stale.
	s.Set(kv("absent"), "x", Version{BlockNum: 3})
	if err := rw.Validate(s); !errors.Is(err, ErrMVCCConflict) {
		t.Fatalf("err = %v, want ErrMVCCConflict", err)
	}
}

// Property: committing a validated RWSet always advances the key version.
func TestPropertyCommitAdvancesVersion(t *testing.T) {
	f := func(keys []string, blockNum uint16) bool {
		s := NewKVStore()
		rw := NewRWSet()
		for _, k := range keys {
			rw.RecordRead(k, s)
			rw.RecordWrite(k, "v")
		}
		if err := rw.Validate(s); err != nil {
			return false
		}
		ver := Version{BlockNum: uint64(blockNum) + 1}
		rw.Commit(s, ver)
		for _, k := range keys {
			got, ok := s.Get(kv(k))
			if !ok || got.Version != ver {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
