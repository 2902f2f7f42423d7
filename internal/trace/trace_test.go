package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func span(key uint64, name, proc, lane string, start, end int64) Span {
	return Span{Key: key, Name: name, Cat: "stage", Proc: proc, Lane: lane, Start: start, End: end}
}

// TestWriteJSONDeterministic: the same span set recorded in different
// orders (the goroutine-interleaving case) exports byte-identical files.
func TestWriteJSONDeterministic(t *testing.T) {
	spans := []Span{
		span(7, "submit", "Fabric", "tx-7", 100, 200),
		span(7, "consensus", "Fabric", "tx-7", 200, 500),
		span(9, "submit", "Quorum", "tx-9", 120, 130),
		{Name: "wal:fsync", Cat: "wal", Proc: "Fabric", Lane: "fabric-peer-0", Start: 150, End: 180},
		{Name: "raft.append", Cat: "net", Proc: "net", Lane: "a→b", Start: 110, End: 115},
	}
	render := func(order []int) []byte {
		tr := New(Options{SampleEvery: 1})
		for _, i := range order {
			tr.Add(spans[i])
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a := render([]int{0, 1, 2, 3, 4})
	b := render([]int{4, 2, 3, 1, 0})
	if !bytes.Equal(a, b) {
		t.Fatalf("export depends on recording order:\n%s\nvs\n%s", a, b)
	}
}

// TestWriteJSONWellFormed: the export parses as the Chrome trace-event
// array format with metadata rows and rebased timestamps.
func TestWriteJSONWellFormed(t *testing.T) {
	tr := New(Options{SampleEvery: 1})
	tr.Add(span(1, "submit", "Fabric", "tx-1", 5_000_000_000, 5_000_001_500))
	tr.Add(Span{Name: "round", Cat: "consensus", Proc: "Fabric", Lane: "consensus", Start: 5_000_000_100, End: 5_000_002_000, Block: 3})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	var meta, complete int
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			if ev["ts"].(float64) < 0 {
				t.Fatalf("negative ts after rebase: %v", ev)
			}
			if _, ok := ev["pid"].(float64); !ok {
				t.Fatalf("missing pid: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if meta < 2 || complete != 2 {
		t.Fatalf("got %d metadata and %d complete events, want >=2 and 2\n%s", meta, complete, buf.Bytes())
	}
}

// TestSampledDeterministicRate: sampling is a pure function of the key and
// lands near the configured rate on uniform keys.
func TestSampledDeterministicRate(t *testing.T) {
	tr := New(Options{SampleEvery: 8})
	tr2 := New(Options{SampleEvery: 8})
	hits := 0
	for k := uint64(1); k <= 8000; k++ {
		a, b := tr.Sampled(k), tr2.Sampled(k)
		if a != b {
			t.Fatalf("sampling not deterministic at key %d", k)
		}
		if a {
			hits++
		}
	}
	if hits < 700 || hits > 1300 {
		t.Fatalf("1-in-8 sampling hit %d of 8000 keys", hits)
	}
	if New(Options{SampleEvery: 1}).Sampled(12345) != true {
		t.Fatal("SampleEvery=1 must sample everything")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Sampled(1) || tr.Enabled() || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	tr.Add(Span{Name: "x"}) // must not panic
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if tr.Exemplars() != nil {
		t.Fatal("nil tracer has no exemplars")
	}
}

func TestCapDrops(t *testing.T) {
	tr := New(Options{SampleEvery: 1, Cap: 2})
	for i := 0; i < 5; i++ {
		tr.Add(span(uint64(i+1), "s", "P", "l", int64(i), int64(i+1)))
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("cap accounting: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestExemplars(t *testing.T) {
	tr := New(Options{SampleEvery: 1})
	// Keys 1..100 with end-to-end extents of key nanoseconds each.
	for k := int64(1); k <= 100; k++ {
		tr.Add(span(uint64(k), "submit", "P", "l", 0, k/2))
		tr.Add(span(uint64(k), "commit", "P", "l", k/2, k))
	}
	ex := tr.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("got %d exemplars", len(ex))
	}
	if ex[0].Label != "p50" || ex[1].Label != "p99" || ex[2].Label != "max" {
		t.Fatalf("labels: %+v", ex)
	}
	if ex[2].TxID != "0000000000000064" { // key 100 has the longest extent
		t.Fatalf("max exemplar: %+v", ex[2])
	}
	if !(ex[0].Seconds <= ex[1].Seconds && ex[1].Seconds <= ex[2].Seconds) {
		t.Fatalf("exemplar ordering: %+v", ex)
	}
}

// BenchmarkUnsampledPath proves the acceptance criterion: the guard an
// instrumented hot path runs for an unsampled transaction costs zero
// allocations.
func BenchmarkUnsampledPath(b *testing.B) {
	tr := New(Options{SampleEvery: 1 << 62})
	key := Key([32]byte{1, 2, 3, 4, 5, 6, 7, 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Sampled(key ^ uint64(i)) {
			tr.Add(Span{Key: key, Name: "submit", Cat: "stage", Proc: "P", Lane: "l"})
		}
	}
}

// BenchmarkNilTracerPath: the disabled-tracing configuration (nil sink) is
// likewise free.
func BenchmarkNilTracerPath(b *testing.B) {
	var tr *Tracer
	key := Key([32]byte{9, 9, 9, 9, 9, 9, 9, 9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Sampled(key ^ uint64(i)) {
			tr.Add(Span{Key: key})
		}
	}
}
