package faults

import (
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
// no-ops, never panics — chaos schedules are allowed to be sloppy. Only the
// actor holding the clock's token touches it, so it takes no lock.
type Injector struct {
	drv   systems.Driver
	clk   *clock.AutoVirtual
	sched []Event

	crashed     map[int]bool // nodes down via CrashNode events
	partitioned []int        // minority group of the active partition
	degraded    bool
	applied     []Applied

	stop *clock.Gate
	join func() // set by Start, or by a Stop without Start: waits for the timeline actor
}

// NewInjector builds an injector for the schedule (applied in time order)
// over the given driver, timed by clk, which is required.
func NewInjector(drv systems.Driver, sched Schedule, clk *clock.AutoVirtual) *Injector {
	if clk == nil {
		panic("faults: NewInjector needs a clock")
	}
	return &Injector{
		drv:     drv,
		clk:     clk,
		sched:   sched.sorted(),
		crashed: make(map[int]bool),
		stop:    clock.NewGate(clk),
	}
}

// Start launches the injection timeline; offsets are measured from this
// call. Start is idempotent.
func (in *Injector) Start() {
	if in.join != nil {
		return
	}
	start := in.clk.Now()
	in.join = clock.Go(in.clk, []string{"fault-injector"}, func(int) { in.run(start) })
}

// Stop halts the timeline and restores the system to health: crashed and
// partitioned nodes restart (replaying their missed commits) and link
// degradations clear, so a benchmark phase always hands a healthy system
// to the next one. Stop is idempotent and safe without Start.
func (in *Injector) Stop() {
	in.stop.Close()
	if in.join == nil {
		in.join = func() {} // never started: nothing to wait for
	}
	in.join()
	in.restoreAll()
}

func (in *Injector) run(start time.Time) {
	for _, ev := range in.sched {
		// An absolute deadline: time passing between reading the clock and
		// arming the timer must not push the event later.
		if due := start.Add(ev.At); in.clk.Now().Before(due) {
			t := in.clk.NewTimerAt(due)
			if i, _, _ := clock.Await(in.clk, in.stop, t); i == 0 {
				t.Stop()
				return
			}
		}
		if in.stop.Closed() {
			return
		}
		in.Apply(ev)
	}
}

// Apply executes one event immediately (also used by tests to drive faults
// synchronously). It returns the driver error, if any; state-machine
// no-ops return nil.
func (in *Injector) Apply(ev Event) error {
	var err error
	switch ev.Kind {
	case CrashNode:
		if in.crashed[ev.Node] {
			return nil // double-crash: no-op
		}
		if err = in.drv.CrashNode(ev.Node); err == nil {
			in.crashed[ev.Node] = true
		}
	case RestartNode:
		if !in.crashed[ev.Node] {
			return nil // restart of a running node: no-op
		}
		if err = in.drv.RestartNode(ev.Node); err == nil {
			delete(in.crashed, ev.Node)
		}
	case Partition:
		if in.partitioned != nil {
			return nil // overlapping partition: no-op
		}
		group := make([]int, 0, len(ev.Group))
		for _, node := range ev.Group {
			if in.crashed[node] {
				continue // already down via an explicit crash
			}
			if e := in.drv.CrashNode(node); e != nil {
				err = e
				continue
			}
			group = append(group, node)
		}
		in.partitioned = group
	case Heal:
		for _, node := range in.partitioned {
			if in.crashed[node] {
				// The node was also explicitly crashed mid-partition: its
				// own RestartNode event owns the recovery.
				continue
			}
			if e := in.drv.RestartNode(node); e != nil {
				err = e
			}
		}
		in.partitioned = nil
		if in.degraded {
			in.drv.FaultTransport().HealAll()
			in.degraded = false
		}
	case DegradeLink:
		if !in.degrade(ev) {
			return nil // no message fabric: nothing was applied
		}
	case SlowNode:
		if !in.degrade(Event{Kind: SlowNode, Group: []int{ev.Node}, Extra: ev.Extra, Loss: ev.Loss}) {
			return nil
		}
	case TornWrite, CorruptRecord:
		if !in.corruptLog(ev) {
			return nil // no WAL to corrupt: nothing was applied
		}
	}
	if err == nil {
		in.applied = append(in.applied, Applied{Event: ev, At: in.clk.Now()})
	}
	return err
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

// restoreAll returns the system to full health.
func (in *Injector) restoreAll() {
	for _, node := range in.partitioned {
		_ = in.drv.RestartNode(node)
	}
	in.partitioned = nil
	for node := range in.crashed {
		_ = in.drv.RestartNode(node)
		delete(in.crashed, node)
	}
	if in.degraded {
		in.drv.FaultTransport().HealAll()
		in.degraded = false
	}
}

// Applied returns the events applied so far, in application order.
func (in *Injector) Applied() []Applied {
	out := make([]Applied, len(in.applied))
	copy(out, in.applied)
	return out
}
