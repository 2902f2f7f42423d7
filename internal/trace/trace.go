// Package trace records sampled per-transaction spans across the simulated
// pipeline: the seven drivers' stage boundaries, network hops, consensus
// rounds, and WAL append/fsync costs. The span store is a single shared
// sink handed to every instrumented component; recording is gated by
// deterministic sampling so virtual-time runs stay bit-identical at a
// fixed seed, and the unsampled path is allocation-free (one arithmetic
// test), so tracing can stay wired into the hot paths. Spans are added by
// whichever actor holds the clock's token, one at a time, so the sink takes
// no lock.
//
// Sampling is a pure function of stable identities — the transaction ID's
// first eight bytes, a block number, a per-link message ordinal — never of
// wall time or map iteration. Two runs at the same seed sample the same
// transactions, so the exported Chrome trace-event JSON (WriteJSON) is
// byte-identical across runs; CI asserts exactly that.
package trace

import "encoding/binary"

// Span is one recorded interval. Times are UnixNano stamps from the run's
// injected clock (never the wall clock), so virtual-time spans are exact.
type Span struct {
	// Key identifies the transaction the span belongs to (Key of its ID);
	// 0 for process-scoped spans such as consensus rounds and WAL syncs.
	Key uint64
	// Name is the span label ("submit", "wal:fsync", a message kind, ...).
	Name string
	// Cat is the span category: "stage", "net", "consensus", or "wal".
	Cat string
	// Proc is the Perfetto process row (the system name, or "net").
	Proc string
	// Lane is the Perfetto thread row within Proc (a per-transaction lane,
	// a node ID, or a directed link).
	Lane string
	// Start and End are UnixNano clock stamps; End >= Start.
	Start int64
	End   int64
	// Block is the containing block/round number when known, else 0.
	Block uint64
}

// Options configures a Tracer.
type Options struct {
	// SampleEvery records one in N transactions (and one in N keyless
	// events per site counter). <= 0 takes the default of 64; 1 records
	// everything.
	SampleEvery int
	// Cap bounds retained spans; once reached, further spans are counted
	// in Dropped and discarded. <= 0 takes the default of 1<<19. The
	// byte-identical-output contract only holds while the cap is not hit
	// (which spans arrive first is scheduler-dependent).
	Cap int
}

// Tracer is the shared span sink. A nil *Tracer is valid and records
// nothing — every method is nil-receiver-safe — so instrumented code needs
// no "is tracing on" branches beyond the Sampled guard it already wants.
type Tracer struct {
	every uint64
	cap   int

	spans   []Span
	dropped uint64
}

// New builds a Tracer.
func New(opts Options) *Tracer {
	every := opts.SampleEvery
	if every <= 0 {
		every = 64
	}
	capN := opts.Cap
	if capN <= 0 {
		capN = 1 << 19
	}
	return &Tracer{every: uint64(every), cap: capN}
}

// Key derives the sampling/grouping key from a transaction ID: its first
// eight bytes, big-endian. IDs are SHA-256 outputs, so the prefix is
// uniform and the key doubles as the rendered trace ID (%016x).
func Key(id [32]byte) uint64 { return binary.BigEndian.Uint64(id[:8]) }

// mix is the SplitMix64 finalizer: it decorrelates keys whose low bits are
// structured (block numbers, per-site ordinals) from the modulus below.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sampled reports whether the transaction (or block, or ordinal) keyed by
// key is in the sampled set: a pure function of the key and the sampling
// rate, identical across runs and across call sites. Nil-safe; the false
// path allocates nothing.
func (t *Tracer) Sampled(key uint64) bool {
	if t == nil {
		return false
	}
	return mix(key)%t.every == 0
}

// Enabled reports whether a sink is attached at all — for sites that emit
// unconditionally (e.g. every WAL fsync) rather than by sample.
func (t *Tracer) Enabled() bool { return t != nil }

// Add records one span. Nil-safe. Spans past the cap are dropped and
// counted.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	if len(t.spans) >= t.cap {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
	}
}

// Len reports the retained span count.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Dropped reports how many spans the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// snapshot copies the retained spans.
func (t *Tracer) snapshot() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}
