package faults

import (
	"slices"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/systems"
)

// Applied records one event the injector actually applied, with the clock
// time at which it fired.
type Applied struct {
	Event Event
	At    time.Time
}

// Injector applies a Schedule against a running driver. Events fire on the
// injected clock, so schedules replay deterministically under
// clock.AutoVirtual. Every Apply transition is idempotent: crashing a crashed
// node, healing without a partition, or restarting a running node are
// no-ops, never panics — chaos schedules are allowed to be sloppy.
//
// The timeline is one clock event, "fault-injector": it runs at each
// entry's offset and applies the entries due, in order. An entry that
// restarts nodes (RestartNode, Heal) waits out each node's recovery steps
// on the same event, node by node, and the timeline goes on from the last
// of them; entries that fell due meanwhile apply at once. Only the token
// holder touches the injector, so it takes no lock.
type Injector struct {
	drv   systems.Driver
	clk   *clock.AutoVirtual
	sched []Event

	crashed     map[int]bool // nodes down via CrashNode events
	partitioned []int        // minority group of the active partition
	degraded    bool
	applied     []Applied

	// ev runs the timeline from start (zero until Start); next is the first
	// entry not yet begun, and until is the end of the recovery wait ev is
	// armed for.
	ev    *clock.Event
	start time.Time
	next  int
	until time.Time

	// The entry being applied (Kind 0 when none) while its nodes recover:
	// the nodes it has still to restart, in order (the first one
	// mid-recovery when recovering), and its error, if any.
	cur        Event
	restarts   []int
	recovering bool
	err        error
}

// NewInjector builds an injector for the schedule (applied in time order)
// over the given driver, timed by clk, which is required.
func NewInjector(drv systems.Driver, sched Schedule, clk *clock.AutoVirtual) *Injector {
	if clk == nil {
		panic("faults: NewInjector needs a clock")
	}
	in := &Injector{
		drv:     drv,
		clk:     clk,
		sched:   sched.sorted(),
		crashed: make(map[int]bool),
	}
	in.ev = clock.NewEvent(clk, "fault-injector", in.run)
	return in
}

// Start launches the injection timeline; offsets are measured from this
// call. Start is idempotent.
func (in *Injector) Start() {
	if !in.start.IsZero() {
		return
	}
	in.start = in.clk.Now()
	if len(in.sched) > 0 {
		in.ev.At(in.start.Add(in.sched[0].At))
	}
}

// Stop halts the timeline and restores the system to health: crashed and
// partitioned nodes restart (replaying their missed commits) and link
// degradations clear, so a benchmark phase always hands a healthy system
// to the next one. The caller is the runner: it sleeps out the rest of a
// recovery the timeline was waiting on, then the recoveries of the restarts
// Stop makes, so Stop returns with every node up. Stop is idempotent and
// safe without Start.
func (in *Injector) Stop() {
	in.ev.Stop()
	if in.recovering {
		in.clk.Sleep(in.until.Sub(in.clk.Now()))
		in.sleepOut()
	}
	in.restoreAll()
}

// run is the timeline event: it goes on with the current entry's
// recoveries, then applies the entries that are due, and arms itself for
// the next wait.
func (in *Injector) run() {
	for {
		if wait := in.advance(); wait > 0 {
			in.until = in.clk.Now().Add(wait)
			in.ev.After(wait)
			return
		}
		if in.next == len(in.sched) {
			return
		}
		// An absolute deadline: the entry fires at its offset from Start
		// however long the entries before it took.
		ev := in.sched[in.next]
		if due := in.start.Add(ev.At); in.clk.Now().Before(due) {
			in.ev.At(due)
			return
		}
		in.next++
		in.begin(ev)
	}
}

// Apply executes one event immediately (also used by tests to drive faults
// synchronously), sleeping out the recovery of the nodes it restarts. It
// returns the driver error, if any; state-machine no-ops return nil.
func (in *Injector) Apply(ev Event) error {
	if !in.begin(ev) {
		return nil
	}
	in.sleepOut()
	return in.err
}

// sleepOut runs the current entry to its end, sleeping on the caller.
func (in *Injector) sleepOut() {
	for wait := in.advance(); wait > 0; wait = in.advance() {
		in.clk.Sleep(wait)
	}
}

// begin applies what ev does at once and lists the nodes it restarts,
// which advance then recovers. It reports false for a no-op, which is not
// recorded.
func (in *Injector) begin(ev Event) bool {
	in.err, in.restarts = nil, in.restarts[:0]
	switch ev.Kind {
	case CrashNode:
		if in.crashed[ev.Node] {
			return false // double-crash: no-op
		}
		if in.err = in.drv.CrashNode(ev.Node); in.err == nil {
			in.crashed[ev.Node] = true
		}
	case RestartNode:
		if !in.crashed[ev.Node] {
			return false // restart of a running node: no-op
		}
		in.restarts = append(in.restarts, ev.Node)
	case Partition:
		if in.partitioned != nil {
			return false // overlapping partition: no-op
		}
		group := make([]int, 0, len(ev.Group))
		for _, node := range ev.Group {
			if in.crashed[node] {
				continue // already down via an explicit crash
			}
			if e := in.drv.CrashNode(node); e != nil {
				in.err = e
				continue
			}
			group = append(group, node)
		}
		in.partitioned = group
	case Heal:
		for _, node := range in.partitioned {
			// A node that was also explicitly crashed mid-partition: its
			// own RestartNode event owns the recovery.
			if !in.crashed[node] {
				in.restarts = append(in.restarts, node)
			}
		}
	case DegradeLink:
		if !in.degrade(ev) {
			return false // no message fabric: nothing was applied
		}
	case SlowNode:
		if !in.degrade(Event{Kind: SlowNode, Group: []int{ev.Node}, Extra: ev.Extra, Loss: ev.Loss}) {
			return false
		}
	case TornWrite, CorruptRecord:
		if !in.corruptLog(ev) {
			return false // no WAL to corrupt: nothing was applied
		}
	}
	in.cur = ev
	return true
}

// advance runs the current entry's restarts, node by node, up to the next
// recovery wait and returns it. Once every node is up it settles the entry
// — the restarted node is no longer crashed, a heal ends the partition and
// the link degradation — records it unless it failed, and returns zero.
func (in *Injector) advance() time.Duration {
	if in.cur.Kind == 0 {
		return 0
	}
	for len(in.restarts) > 0 {
		node := in.restarts[0]
		var wait time.Duration
		if in.recovering {
			wait = in.drv.ResumeNode(node)
		} else {
			var err error
			if wait, err = in.drv.RestartNode(node); err != nil {
				in.err = err
			}
		}
		if in.recovering = wait > 0; in.recovering {
			return wait
		}
		in.restarts = in.restarts[1:]
	}
	switch in.cur.Kind {
	case RestartNode:
		if in.err == nil {
			delete(in.crashed, in.cur.Node)
		}
	case Heal:
		in.partitioned = nil
		if in.degraded {
			in.drv.FaultTransport().HealAll()
			in.degraded = false
		}
	}
	if in.err == nil {
		in.applied = append(in.applied, Applied{Event: in.cur, At: in.clk.Now()})
	}
	in.cur = Event{}
	return 0
}

// degrade applies Extra/Loss to the affected directed links: every link
// when the group is empty, otherwise each link touching a group node's
// endpoints. It reports whether the driver had a fabric to degrade.
func (in *Injector) degrade(ev Event) bool {
	tr := in.drv.FaultTransport()
	if tr == nil {
		return false // no message fabric to degrade
	}
	all := tr.Endpoints()
	targets := all
	if len(ev.Group) > 0 {
		targets = targets[:0:0]
		for _, node := range ev.Group {
			targets = append(targets, in.drv.NodeEndpoints(node)...)
		}
	}
	for _, t := range targets {
		for _, other := range all {
			if other == t {
				continue
			}
			tr.DegradeLink(t, other, ev.Extra, ev.Loss)
			tr.DegradeLink(other, t, ev.Extra, ev.Loss)
		}
	}
	in.degraded = true
	return true
}

// corruptLog applies a TornWrite or CorruptRecord to the target node's WAL.
// It reports whether anything was damaged: a node without a log or a log
// too short to corrupt decays to a no-op.
func (in *Injector) corruptLog(ev Event) bool {
	log := in.drv.NodeWAL(ev.Node)
	if log == nil {
		return false // no durable plane to corrupt
	}
	if ev.Kind == TornWrite {
		return log.InjectTornWrite()
	}
	return log.InjectCorruptRecord()
}

// restoreAll returns the system to full health. Crashed nodes restart in
// ascending node order: each restart replays that node's missed commits,
// so the order is part of the run and must not follow the map's.
func (in *Injector) restoreAll() {
	for _, node := range in.partitioned {
		in.restart(node)
	}
	in.partitioned = nil
	crashed := make([]int, 0, len(in.crashed))
	for node := range in.crashed {
		crashed = append(crashed, node)
	}
	slices.Sort(crashed)
	for _, node := range crashed {
		in.restart(node)
	}
	clear(in.crashed)
	if in.degraded {
		in.drv.FaultTransport().HealAll()
		in.degraded = false
	}
}

// restart restarts node and sleeps out its recovery on the caller.
func (in *Injector) restart(node int) {
	wait, _ := in.drv.RestartNode(node)
	for ; wait > 0; wait = in.drv.ResumeNode(node) {
		in.clk.Sleep(wait)
	}
}

// Applied returns the events applied so far, in application order.
func (in *Injector) Applied() []Applied {
	out := make([]Applied, len(in.applied))
	copy(out, in.applied)
	return out
}
