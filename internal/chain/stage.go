package chain

import (
	"time"
)

// Stage names one segment of the common transaction pipeline every system
// implements in some order: client submit → mempool/queue wait →
// consensus/ordering → execution → validation → commit broadcast. A stage
// mark records when that segment *completed* for a transaction, so the
// interval between consecutive marks is the time spent in the later stage.
//
// Systems traverse the stages in different orders (Fabric executes at
// endorsement, before the transaction ever queues for ordering; the
// order-execute systems queue first), so stage durations are derived by
// sorting the marks a transaction actually collected, not by assuming a
// fixed order.
type Stage int

// Pipeline stages. StageCommit has no driver-side mark: the commit
// broadcast segment ends when the client's finalization notification
// arrives, which only the client can observe.
const (
	// StageSubmit ends when the transaction is admitted into the system
	// (entry-node mempool/queue accept). Its duration is the client-to-node
	// submission cost.
	StageSubmit Stage = iota
	// StageQueue ends when the transaction leaves the mempool/queue — it was
	// cut into a batch, pulled into a proposal, or picked up by a flow
	// worker. Its duration is the queue wait.
	StageQueue
	// StageConsensus ends when the ordering decision containing the
	// transaction is reached (Raft/IBFT/PBFT/DiemBFT decide, DPoS slot
	// production, Corda notarisation).
	StageConsensus
	// StageExecute ends when transaction execution completes (Fabric
	// endorsement, order-execute apply, Corda flow build).
	StageExecute
	// StageValidate ends when commit-time validation completes (Fabric MVCC
	// check, Corda vault apply). Order-execute systems have no separate
	// validation and leave it unset.
	StageValidate
	// StageCommit ends when the client receives the finalization
	// notification ("persisted on all nodes", §4.5). Marked client-side.
	StageCommit
	// NumStages is the number of pipeline stages.
	NumStages = int(StageCommit) + 1
)

// String returns the stage's report label.
func (s Stage) String() string {
	switch s {
	case StageSubmit:
		return "submit"
	case StageQueue:
		return "queue"
	case StageConsensus:
		return "consensus"
	case StageExecute:
		return "execute"
	case StageValidate:
		return "validate"
	case StageCommit:
		return "commit"
	default:
		return "stage?"
	}
}

// StageByName maps a report label back to its Stage; ok is false for an
// unknown label.
func StageByName(name string) (Stage, bool) {
	for s := 0; s < NumStages; s++ {
		if Stage(s).String() == name {
			return Stage(s), true
		}
	}
	return 0, false
}

// StageTrace carries a transaction's per-stage completion timestamps. It is
// embedded by value in Transaction so the hot path allocates nothing extra;
// drivers stamp stages with Mark as the transaction moves through their
// pipeline. Marks are first-write-wins, so several validators may stamp
// the same *Transaction (Quorum gossip shares the pointer) and gate backlog
// replay stays idempotent — the earliest completion is the one that counts.
type StageTrace struct {
	marks [NumStages]int64
}

// Mark records stage s as completed at the given instant if it has no mark
// yet. The zero UnixNano is displaced by one nanosecond so a mark exactly at
// the epoch is not mistaken for "unset"; virtual clocks count from an
// arbitrary base, so no real observation is affected.
func (t *StageTrace) Mark(s Stage, at time.Time) {
	ns := at.UnixNano()
	if ns == 0 {
		ns = 1
	}
	if t.marks[s] == 0 {
		t.marks[s] = ns
	}
}

// At returns the stage's completion time in UnixNano, or 0 when unset.
func (t *StageTrace) At(s Stage) int64 { return t.marks[s] }

// StageSpan is one resolved pipeline segment: the stage and the time spent
// in it.
type StageSpan struct {
	Stage Stage
	Dur   time.Duration
}

// Durations resolves the trace into per-stage durations. start is the
// client's send instant (T0) and end the client's confirmation instant
// (T3); end also closes the StageCommit segment, which has no driver-side
// mark. The set marks are sorted by (time, stage index) and each interval
// is attributed to the stage whose mark ends it, so pipelines that traverse
// stages in different orders (Fabric executes before queueing) resolve
// without per-system logic. The spans buffer is filled and returned
// (callers pass a stack array slice to keep this allocation-free); unset
// stages are omitted. Negative intervals (a mark before start, from clock
// skew) clamp to zero.
func (t *StageTrace) Durations(start, end time.Time, spans []StageSpan) []StageSpan {
	type mark struct {
		ns int64
		s  Stage
	}
	var set [NumStages]mark
	n := 0
	for s := 0; s < NumStages; s++ {
		if ns := t.marks[s]; ns != 0 {
			m := mark{ns: ns, s: Stage(s)}
			// Insertion sort on a fixed array: NumStages is tiny and this
			// keeps the resolution allocation-free on the event hot path.
			i := n
			for i > 0 && (set[i-1].ns > m.ns || (set[i-1].ns == m.ns && set[i-1].s > m.s)) {
				set[i] = set[i-1]
				i--
			}
			set[i] = m
			n++
		}
	}
	spans = spans[:0]
	prev := start.UnixNano()
	for i := 0; i < n; i++ {
		if set[i].s == StageCommit {
			continue // commit closes at end below
		}
		d := time.Duration(set[i].ns - prev)
		if d < 0 {
			d = 0
		}
		spans = append(spans, StageSpan{Stage: set[i].s, Dur: d})
		prev = set[i].ns
	}
	d := time.Duration(end.UnixNano() - prev)
	if d < 0 {
		d = 0
	}
	spans = append(spans, StageSpan{Stage: StageCommit, Dur: d})
	return spans
}
