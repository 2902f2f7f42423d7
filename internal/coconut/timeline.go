package coconut

import (
	"sort"
	"time"
)

// Timeline is the windowed measurement plane: sends and confirmations are
// bucketed into fixed-width time windows as they happen (two adds per
// transaction), so a faulted run produces a throughput/latency timeline
// and derived availability and recovery statistics instead of a single
// aggregate number. One Timeline is shared by every client of a benchmark
// phase.
type Timeline struct {
	start  time.Time
	window time.Duration
	sent   []int64
	recv   []int64
	valid  []int64
	latNs  []int64
	// Past-horizon observations accumulate here instead of being clamped
	// into the last window: folding them in would inflate the final
	// bucket's throughput, which lets recoveryTime mistake a burst of
	// ultra-late confirmations for a recovered system and distorts the
	// availability span. The overflow is reported separately (Overflow)
	// and excluded from availability/recovery.
	overSent  int64
	overRecv  int64
	overValid int64
	overLatNs int64
}

// NewTimeline creates a timeline starting at start, covering horizon with
// buckets of the given window width. Observations past the horizon land in
// a separate overflow bucket (see Overflow), not in the last window.
func NewTimeline(start time.Time, window, horizon time.Duration) *Timeline {
	if window <= 0 {
		window = time.Second
	}
	n := int(horizon/window) + 1
	if n < 1 {
		n = 1
	}
	return &Timeline{
		start:  start,
		window: window,
		sent:   make([]int64, n),
		recv:   make([]int64, n),
		valid:  make([]int64, n),
		latNs:  make([]int64, n),
	}
}

// idx maps an instant to its window, or -1 when it falls past the horizon.
// Pre-start instants (clock skew around load start) clamp into window 0.
func (t *Timeline) idx(at time.Time) int {
	i := int(at.Sub(t.start) / t.window)
	if i < 0 {
		i = 0
	}
	if i >= len(t.sent) {
		return -1
	}
	return i
}

// RecordSend streams one submission of ops payloads.
func (t *Timeline) RecordSend(at time.Time, ops int) {
	i := t.idx(at)
	if i < 0 {
		t.overSent += int64(ops)
		return
	}
	t.sent[i] += int64(ops)
}

// RecordRecv streams one confirmation of ops payloads with its end-to-end
// finalization latency and validation verdict. Latency is weighted by ops
// so MeanFLS stays a per-payload mean when transactions carry several
// operations; valid payloads additionally count toward the window's
// goodput, so a faulted contention run yields a goodput timeline, not just
// a raw-confirmation one.
func (t *Timeline) RecordRecv(at time.Time, ops int, fls time.Duration, valid bool) {
	i := t.idx(at)
	if i < 0 {
		t.overRecv += int64(ops)
		if valid {
			t.overValid += int64(ops)
		}
		t.overLatNs += int64(fls) * int64(ops)
		return
	}
	t.recv[i] += int64(ops)
	if valid {
		t.valid[i] += int64(ops)
	}
	t.latNs[i] += int64(fls) * int64(ops)
}

// Overflow reports the observations that landed past the timeline's horizon
// as one synthetic bucket starting at the horizon's end. It is not part of
// Snapshot and never feeds availability or recovery; callers that need the
// total payload accounting add it explicitly.
func (t *Timeline) Overflow() WindowStat {
	recv := t.overRecv
	ws := WindowStat{
		Start:    time.Duration(len(t.sent)) * t.window,
		Sent:     int(t.overSent),
		Received: int(recv),
		Valid:    int(t.overValid),
	}
	if recv > 0 {
		ws.MeanFLS = (time.Duration(t.overLatNs / recv)).Seconds()
	}
	return ws
}

// WindowStat is one timeline bucket.
type WindowStat struct {
	// Start is the bucket's offset from load start.
	Start time.Duration
	// Sent and Received count payloads submitted and confirmed in the
	// bucket (confirmations bucket by arrival time).
	Sent     int
	Received int
	// Valid counts the bucket's confirmations that committed valid — the
	// window's goodput contribution. Valid <= Received.
	Valid int
	// MeanFLS is the mean finalization latency of the bucket's
	// confirmations, in seconds (0 when none arrived).
	MeanFLS float64
}

// AbortRate is the fraction of the window's confirmations that committed
// invalid: (Received - Valid) / Received, 0 for an empty window.
func (w WindowStat) AbortRate() float64 {
	if w.Received == 0 {
		return 0
	}
	return float64(w.Received-w.Valid) / float64(w.Received)
}

// Snapshot renders the timeline, trimmed of trailing buckets with no
// activity.
func (t *Timeline) Snapshot() []WindowStat {
	last := -1
	for i := range t.sent {
		if t.sent[i] > 0 || t.recv[i] > 0 {
			last = i
		}
	}
	out := make([]WindowStat, last+1)
	for i := range out {
		recv := t.recv[i]
		ws := WindowStat{
			Start:    time.Duration(i) * t.window,
			Sent:     int(t.sent[i]),
			Received: int(recv),
			Valid:    int(t.valid[i]),
		}
		if recv > 0 {
			ws.MeanFLS = (time.Duration(t.latNs[i] / recv)).Seconds()
		}
		out[i] = ws
	}
	return out
}

// minOutageWindows is the shortest run of consecutive zero-confirmation
// windows that counts as an outage. A single empty window between busy
// neighbours is jitter (slow systems confirm in coarse bursts — Corda OS
// finishes a handful of flows per second, Diem spikes); two or more in a
// row is silence.
const minOutageWindows = 2

// FaultMetrics are the availability and recovery statistics derived from a
// timeline, optionally anchored to a fault window.
type FaultMetrics struct {
	// Availability is 1 minus the fraction of outage windows within the
	// confirmation span (first to last window with confirmations). An
	// outage window is a zero-confirmation window inside a run of at least
	// minOutageWindows such windows. A healthy run reports 1.
	Availability float64
	// Recovered reports whether confirmation throughput returned to at
	// least half the pre-fault steady-state rate after the last heal.
	Recovered bool
	// RecoverySec is the time from the last heal to the end of the first
	// window whose confirmations reached that threshold (0 when the run
	// had no faults; meaningless when Recovered is false).
	RecoverySec float64
	// GoodputRecovered and GoodputRecoverySec are the same recovery rule
	// applied to valid-committed counts: how long after the last heal it
	// took goodput — not just raw confirmations — to regain half its
	// pre-fault steady state. Under contention a system can recover raw
	// throughput quickly while replayed conflicts keep goodput depressed,
	// so the two recovery times diverge.
	GoodputRecovered   bool
	GoodputRecoverySec float64
	// Windows is the full timeline.
	Windows []WindowStat
}

// ComputeFaultMetrics derives availability and recovery from a timeline.
// faultAt and healAt are the offsets (from load start) of the first fault
// event and of the last recovering event; pass ok=false for a no-fault
// run, which reports RecoverySec 0 and Recovered true.
func ComputeFaultMetrics(t *Timeline, faultAt, healAt time.Duration, ok bool) FaultMetrics {
	fm := FaultMetrics{Windows: t.Snapshot(), Recovered: true, GoodputRecovered: true}
	fm.Availability = availability(fm.Windows)
	if !ok {
		return fm
	}
	fm.Recovered, fm.RecoverySec = recoveryTime(fm.Windows, t.window, faultAt, healAt,
		func(w WindowStat) int { return w.Received })
	fm.GoodputRecovered, fm.GoodputRecoverySec = recoveryTime(fm.Windows, t.window, faultAt, healAt,
		func(w WindowStat) int { return w.Valid })
	return fm
}

// recoveryTime applies the recovery rule to one counter: the steady-state
// baseline is the median of the counter over the pre-fault windows of the
// confirmation span, and recovery is the first window past the heal whose
// counter regains half that baseline.
func recoveryTime(ws []WindowStat, window time.Duration, faultAt, healAt time.Duration, count func(WindowStat) int) (bool, float64) {
	first, last := span(ws)
	if first < 0 {
		return false, 0
	}
	var pre []int
	for i := first; i <= last; i++ {
		if ws[i].Start+window <= faultAt {
			pre = append(pre, count(ws[i]))
		}
	}
	threshold := medianInt(pre) / 2
	if threshold < 1 {
		threshold = 1
	}
	for i := range ws {
		end := ws[i].Start + window
		if end <= healAt {
			continue
		}
		if count(ws[i]) >= threshold {
			return true, (end - healAt).Seconds()
		}
	}
	return false, 0
}

// span returns the first and last window indices with confirmations, or
// (-1, -1) when nothing was confirmed.
func span(ws []WindowStat) (first, last int) {
	first, last = -1, -1
	for i := range ws {
		if ws[i].Received > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	return first, last
}

// availability computes 1 - outage fraction over the confirmation span.
func availability(ws []WindowStat) float64 {
	first, last := span(ws)
	if first < 0 {
		return 0
	}
	total := last - first + 1
	outage := 0
	run := 0
	flush := func() {
		if run >= minOutageWindows {
			outage += run
		}
		run = 0
	}
	for i := first; i <= last; i++ {
		if ws[i].Received == 0 {
			run++
			continue
		}
		flush()
	}
	flush()
	return 1 - float64(outage)/float64(total)
}

// medianInt returns the median of vs (0 for an empty slice).
func medianInt(vs []int) int {
	if len(vs) == 0 {
		return 0
	}
	sorted := make([]int, len(vs))
	copy(sorted, vs)
	sort.Ints(sorted)
	return sorted[len(sorted)/2]
}
