package systems

import (
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// DurableGate is one node's commit-plane switch, mounted by the chassis
// (Node.Gate) behind the Driver contract's CrashNode/RestartNode hooks, with
// an optional write-ahead log making recovery cost real.
//
// The simulation models crashes at the commit plane: the consensus engines
// keep running (they stand in for the rest of the network, which in a real
// deployment would elect around the failed replica and later state-transfer
// it back), while the gate suspends the node's local ledger and world-state
// application. Nor do they wait for a replica's log: a ledger write never
// holds up the engine that ordered it. While down, the node's commit work is
// buffered in arrival order; Restart replays the backlog in that order
// before reopening, which models the catch-up real systems perform on rejoin
// (Raft log repair, Fabric's deliver service, Sawtooth catch-up, Diem state
// sync) and guarantees the restarted node converges to the same committed
// prefix as the nodes that stayed up. Without Enable that is all the gate
// does: work runs at once while it is open, and the no-fault hot path pays
// nothing.
//
// With a log enabled, CommitTo appends a WAL record *before* the node's
// commit work, which waits out the modeled append/fsync latency as a
// deadline on the node's clock while its caller runs on; Crash moves the
// work still waiting to the backlog and drops the log's un-synced tail
// (in-memory page cache lost with the process) instead of recovery being
// free; the chassis' MarkStopped disarms the deadline, and the work still
// waiting drops with the process; Restart replays the log from the last
// snapshot — paying per-record read+CRC-verify cost — and then re-fetches
// from the surviving nodes whatever the log could not provide (lost tail,
// work missed while down, a torn or corrupt suffix), persisting the
// catch-up batch before reopening. Recovery time therefore scales with log
// length and crash point.
//
// Only the token holder touches the gate, so it takes no lock: during a
// wait of its own (a Restart step's, Commit's) others may commit, crash or
// restart it, and each sees the state the last one left.
type DurableGate struct {
	down    bool
	backlog []gateTask
	// replaying marks an in-progress Restart. The gate stays down while
	// the backlog is replayed, so Commit calls made meanwhile keep appending
	// (preserving arrival order behind the replayed prefix) and a second
	// Restart is a no-op instead of a double replay. recrash records a Crash
	// that landed during one of the restart's waits: recovery stops before
	// applying anything more, the unapplied work stays buffered in order,
	// and the node stays down until the next Restart. resume is the step
	// that runs once the current wait has passed; draining is the drain
	// round's batch while it waits, so Backlog never under-reports.
	replaying bool
	recrash   bool
	resume    func() time.Duration
	draining  []gateTask

	clk *clock.AutoVirtual
	log *wal.Log
	// waiting holds the work whose record is appended and whose modeled
	// latency has not passed; due applies it at its deadline, and lastDue
	// is the newest deadline, which work queued behind never precedes.
	waiting gateQueue
	due     *clock.Event
	lastDue time.Time
	// pendingRefetch counts records the log lost at crash time, to be
	// re-fetched from peers on the next Restart.
	pendingRefetch int

	// Tracing (see Trace): fsync barriers always produce a span — they are
	// the rare, expensive event — while plain appends are counter-sampled
	// through the tracer's rate so batch-policy runs stay bounded.
	tr        *trace.Tracer
	traceProc string
	traceLane string
	traceKey  uint64 // FNV of the lane, salts the append counter
	appendSeq uint64

	replayedRecords  uint64
	refetchedRecords uint64
	replaySec        float64
	refetchSec       float64
}

// gateTask is one unit of buffered commit work and the entry (transaction)
// count its WAL record covers.
type gateTask struct {
	entries int
	f       func()
}

// Enable mounts a write-ahead log on the gate. Call before traffic starts;
// a gate never Enabled only buffers and replays, at no modeled cost.
func (g *DurableGate) Enable(clk *clock.AutoVirtual, log *wal.Log) {
	g.clk = clk
	g.log = log
	g.due = clock.NewEvent(clk, "gate/"+log.Name(), g.applyDue)
}

// Trace attaches a span sink to the gate's durability path. proc and lane
// name the Chrome-trace process/thread rows (system name and node name). A
// nil tracer detaches. Call before traffic starts, like Enable.
func (g *DurableGate) Trace(tr *trace.Tracer, proc, lane string) {
	g.tr = tr
	g.traceProc = proc
	g.traceLane = lane
	h := uint64(14695981039346656037)
	for i := 0; i < len(lane); i++ {
		h ^= uint64(lane[i])
		h *= 1099511628211
	}
	g.traceKey = h
}

// WAL returns the mounted log, or nil when durability is disabled.
func (g *DurableGate) WAL() *wal.Log { return g.log }

// Commit is CommitTo for work already held in a closure, made by an actor
// that waits for it: with a log mounted it returns once f has applied, or a
// crash during the wait has buffered it for replay.
func (g *DurableGate) Commit(entries int, f func()) {
	CommitTo(g, entries, f, runTask)
	if g.waiting != nil && g.waiting.len() > 0 { // f waits, last in line
		g.clk.Sleep(g.lastDue.Sub(g.clk.Now()))
		g.applyDue()
	}
}

func runTask(f func()) { f() }

// CommitTo durably records and then runs apply(arg), one unit of commit
// work covering `entries` transactions (zero entries — an empty block —
// still writes a header-only record). It never parks. When the gate is open
// and a log is mounted, the record is appended now and the work waits out
// the modeled append+fsync latency: it applies at the append instant plus
// that latency, or at the previous waiting work's deadline if that is
// later, so work applies in append order. Work with no latency to wait and
// nothing ahead of it applies at once, as does all work without a log; when
// the node is down, the work is buffered for replay in arrival order.
//
// The work is data rather than a closure so the fan-out of one decided
// block to every replica allocates nothing: drivers build apply once per
// replica, and waiting work is kept typed. The closure binding apply to arg
// is made only when the work must outlive a crash — the gate is down, or
// the node crashed during the durability wait — or waits behind work of
// another type.
func CommitTo[T any](g *DurableGate, entries int, arg T, apply func(T)) {
	if g.down {
		g.backlog = append(g.backlog, gateTask{entries, bind(apply, arg)})
		return
	}
	if g.log == nil {
		apply(arg)
		return
	}
	res := g.log.Append(entries)
	if tr := g.tr; tr.Enabled() {
		// Every fsync barrier is recorded (sampling could miss all of a
		// batch policy's rare syncs); plain appends go through the rate.
		emit := res.Synced || tr.Sampled(g.appendSeq^g.traceKey)
		g.appendSeq++
		if emit {
			name := "wal:append"
			if res.Synced {
				name = "wal:fsync"
			}
			startN := g.clk.Now().UnixNano()
			tr.Add(trace.Span{Name: name, Cat: "wal", Proc: g.traceProc, Lane: g.traceLane,
				Start: startN, End: startN + int64(res.Latency)})
		}
	}
	if g.waiting == nil {
		g.waiting = &waitQueue[T]{}
	}
	at := g.clk.Now().Add(res.Latency)
	if g.waiting.len() == 0 {
		if res.Latency <= 0 {
			apply(arg)
			return
		}
		g.due.At(at)
	} else if at.Before(g.lastDue) {
		at = g.lastDue // behind the work already waiting
	}
	g.lastDue = at
	if q, ok := g.waiting.(*waitQueue[T]); ok {
		*q = append(*q, waitingWork[T]{at, arg, apply})
	} else {
		g.waiting.pushBound(at, bind(apply, arg))
	}
}

// applyDue is the gate's deadline: it applies the waiting work that is due
// and re-arms for the next.
func (g *DurableGate) applyDue() {
	if next, waits := g.waiting.applyDue(g.clk.Now()); waits {
		g.due.At(next)
	}
}

// gateQueue is a gate's waiting work, oldest first: a waitQueue typed by
// the first work that waited, behind an interface so the gate stays untyped.
type gateQueue interface {
	len() int
	// pushBound queues work of another type than the queue's, bound.
	pushBound(at time.Time, f func())
	// applyDue applies the work due at now and reports the next deadline,
	// if work still waits.
	applyDue(now time.Time) (next time.Time, waits bool)
	// toBacklog moves the waiting work to the backlog, in order, as tasks
	// of no entries: their records are already appended.
	toBacklog(backlog []gateTask) []gateTask
}

type waitQueue[T any] []waitingWork[T]

// waitingWork is one apply(arg) and its deadline.
type waitingWork[T any] struct {
	at    time.Time
	arg   T
	apply func(T)
}

func (q *waitQueue[T]) len() int { return len(*q) }

func (q *waitQueue[T]) pushBound(at time.Time, f func()) {
	*q = append(*q, waitingWork[T]{at: at, apply: func(T) { f() }})
}

// applyDue applies the due prefix and then drops it. The work it applies
// may queue more on the same gate, behind what is there.
func (q *waitQueue[T]) applyDue(now time.Time) (time.Time, bool) {
	n := 0
	for ; n < len(*q) && !(*q)[n].at.After(now); n++ {
		(*q)[n].apply((*q)[n].arg)
	}
	rest := copy(*q, (*q)[n:])
	clear((*q)[rest:])
	if *q = (*q)[:rest]; rest == 0 {
		return time.Time{}, false
	}
	return (*q)[0].at, true
}

func (q *waitQueue[T]) toBacklog(backlog []gateTask) []gateTask {
	for _, w := range *q {
		backlog = append(backlog, gateTask{0, bind(w.apply, w.arg)})
	}
	clear(*q)
	*q = (*q)[:0]
	return backlog
}

// bind closes apply over arg for the backlog. It is a function of its own
// so that only a call on a buffering path moves arg to the heap.
func bind[T any](apply func(T), arg T) func() { return func() { apply(arg) } }

// Crash closes the gate and drops the log's un-synced tail, reporting
// whether the crash had effect. A crash landing mid-replay interrupts the
// drain (the node stays down; a later Restart completes recovery) and also
// reports true; a second crash on an already-down, non-replaying node is a
// no-op returning false, never a panic.
func (g *DurableGate) Crash() bool {
	if g.down {
		if g.replaying && !g.recrash {
			g.recrash = true
			return true
		}
		return false
	}
	g.down = true
	if g.waiting != nil {
		g.backlog = g.waiting.toBacklog(g.backlog)
	}
	if g.log != nil {
		g.pendingRefetch += g.log.Crash()
	}
	return true
}

// Restart begins recovering the node: replay the log's valid prefix
// (charging per-record read+CRC cost), re-fetch and re-persist whatever the
// log lost, then drain the buffered commit work in arrival order and
// reopen. The replay, the re-fetch and each drain round's re-fetch cost
// modeled time, which the caller waits out on the clock (an actor sleeps
// it, an event arms After): Restart runs recovery up to its first wait and
// returns it, and Resume, called once that much time has passed, runs it to
// the next. Zero means recovery is over. Restarting a node that is up or
// already recovering is a no-op returning zero.
//
// Each drain round swaps the backlog out before replaying it: a buffered
// callback may itself commit on the same gate (drivers nest commit work),
// and others may commit during the round's wait. The gate stays down
// meanwhile, so that work is buffered behind the replayed prefix and
// drained by the next round — replay order still exactly matches arrival
// order.
func (g *DurableGate) Restart() time.Duration {
	if !g.down || g.replaying {
		return 0
	}
	g.replaying = true
	g.recrash = false
	log, refetch := g.log, g.pendingRefetch
	g.pendingRefetch = 0
	if log == nil {
		return g.drain()
	}
	rep := log.Replay()
	refetch += rep.Lost // a torn/corrupt suffix is re-fetched too
	return g.after(rep.Latency, func() time.Duration {
		g.replayedRecords += uint64(rep.Records)
		g.replaySec += rep.Latency.Seconds()
		if refetch == 0 {
			return g.drain()
		}
		return g.chargeRefetch(make([]int, refetch), g.drain)
	})
}

// Resume runs a recovery whose wait has passed up to its next wait and
// returns it, zero once recovery is over.
func (g *DurableGate) Resume() time.Duration {
	next := g.resume
	if next == nil {
		return 0
	}
	g.resume = nil
	return next()
}

// after returns wait and leaves next for Resume, or runs next at once when
// there is nothing to wait.
func (g *DurableGate) after(wait time.Duration, next func() time.Duration) time.Duration {
	if wait > 0 {
		g.resume = next
		return wait
	}
	return next()
}

// drain runs one drain round — its re-fetch charge, then the batch — or,
// with nothing left or a crash during the last wait, ends recovery: the
// gate reopens unless it crashed.
func (g *DurableGate) drain() time.Duration {
	if len(g.backlog) == 0 || g.recrash {
		g.replaying = false
		g.down = g.recrash
		g.recrash = false
		return 0
	}
	batch := g.backlog
	g.backlog = nil
	g.draining = batch
	apply := func() time.Duration {
		g.draining = nil
		if g.recrash {
			// Push the batch back to the front so a later Restart resumes
			// exactly where this one was interrupted.
			g.backlog = append(batch, g.backlog...)
			return g.drain()
		}
		for _, t := range batch {
			t.f()
		}
		return g.drain()
	}
	if g.log == nil {
		return apply()
	}
	counts := make([]int, len(batch))
	for i, t := range batch {
		counts[i] = t.entries
	}
	return g.chargeRefetch(counts, apply)
}

// chargeRefetch persists one catch-up batch (bulk append, single forced
// sync) and charges its modeled persist+network-refetch cost, after which
// then runs.
func (g *DurableGate) chargeRefetch(counts []int, then func() time.Duration) time.Duration {
	res := g.log.AppendBatch(counts)
	cost := res.Latency + g.log.RefetchCost(len(counts))
	return g.after(cost, func() time.Duration {
		g.refetchedRecords += uint64(len(counts))
		g.refetchSec += cost.Seconds()
		return then()
	})
}

// Down reports whether the node is currently crashed.
func (g *DurableGate) Down() bool { return g.down }

// Backlog reports how much commit work is still pending: buffered items
// plus the batch of an in-progress Restart drain.
func (g *DurableGate) Backlog() int { return len(g.backlog) + len(g.draining) }

// Stats snapshots the node's recovery-plane counters (zero value when no
// log is mounted).
func (g *DurableGate) Stats() RecoveryStats {
	rs := RecoveryStats{
		ReplayedRecords:  g.replayedRecords,
		RefetchedRecords: g.refetchedRecords,
		ReplaySec:        g.replaySec,
		RefetchSec:       g.refetchSec,
	}
	if g.log != nil {
		ls := g.log.Stats()
		rs.LogRecords = ls.AppendedRecords
		rs.LogBytes = ls.AppendedBytes
		rs.Fsyncs = ls.Fsyncs
		rs.Snapshots = ls.Snapshots
		rs.LostRecords = ls.LostRecords
	}
	return rs
}

// RecoveryStats aggregates the durability plane's cumulative counters,
// summed by drivers across their node gates and folded by the benchmark
// runner into per-repetition deltas.
type RecoveryStats struct {
	// LogRecords/LogBytes count everything ever appended to the WALs.
	LogRecords uint64
	LogBytes   uint64
	// Fsyncs and Snapshots count durability barriers and checkpoints.
	Fsyncs    uint64
	Snapshots uint64
	// LostRecords counts records dropped by crash truncation or stopped-at
	// by CRC verification (torn/corrupt suffixes).
	LostRecords uint64
	// ReplayedRecords/ReplaySec measure log replay on restart — the cost
	// that scales with crash-point log length.
	ReplayedRecords uint64
	ReplaySec       float64
	// RefetchedRecords/RefetchSec measure peer catch-up for records the
	// log could not provide.
	RefetchedRecords uint64
	RefetchSec       float64
}

// Add returns s + o, component-wise.
func (s RecoveryStats) Add(o RecoveryStats) RecoveryStats {
	s.LogRecords += o.LogRecords
	s.LogBytes += o.LogBytes
	s.Fsyncs += o.Fsyncs
	s.Snapshots += o.Snapshots
	s.LostRecords += o.LostRecords
	s.ReplayedRecords += o.ReplayedRecords
	s.ReplaySec += o.ReplaySec
	s.RefetchedRecords += o.RefetchedRecords
	s.RefetchSec += o.RefetchSec
	return s
}

// Sub returns s - o, component-wise — the delta between two snapshots of
// cumulative counters.
func (s RecoveryStats) Sub(o RecoveryStats) RecoveryStats {
	s.LogRecords -= o.LogRecords
	s.LogBytes -= o.LogBytes
	s.Fsyncs -= o.Fsyncs
	s.Snapshots -= o.Snapshots
	s.LostRecords -= o.LostRecords
	s.ReplayedRecords -= o.ReplayedRecords
	s.ReplaySec -= o.ReplaySec
	s.RefetchedRecords -= o.RefetchedRecords
	s.RefetchSec -= o.RefetchSec
	return s
}
