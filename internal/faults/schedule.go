// Package faults is the fault-injection plane: declarative chaos schedules
// applied against a running systems.Driver and its network.Transport. The
// paper benchmarks all seven systems on a healthy 4-node LAN only; this
// package turns node crashes, partitions, and link degradation into a
// scriptable benchmark dimension so the runner can measure availability and
// recovery behaviour — where permissioned systems actually diverge (paper
// §5.8, §6).
//
// Fault model. Crashes and partitions act on the drivers' commit plane
// (Driver.CrashNode/RestartNode): the consensus engines keep running —
// standing in for the surviving replicas plus the state transfer every real
// system performs on rejoin — while the crashed or minority nodes stop
// persisting, stop acknowledging, and reject submissions. Restart and Heal
// replay the missed commits in the order the survivors applied them, so
// recovered nodes always converge to the same committed prefix. Link
// degradation (DegradeLink, SlowNode) acts on the real message fabric
// (Driver.FaultTransport) via Transport.DegradeLink: messages genuinely slow down and vanish, and the
// consensus protocols ride it out with their own timeout machinery.
package faults

import (
	"fmt"
	"sort"
	"time"
)

// Kind enumerates schedulable fault events.
type Kind int

// Fault event kinds.
const (
	// CrashNode halts one node (Driver.CrashNode).
	CrashNode Kind = iota + 1
	// RestartNode recovers a crashed node (Driver.RestartNode).
	RestartNode
	// Partition splits the network: the Group nodes form the minority side
	// and stop persisting/acknowledging until Heal.
	Partition
	// Heal ends the active partition and clears link degradations.
	Heal
	// DegradeLink adds Extra latency and Loss probability to links — every
	// link when Group is empty, otherwise all links touching the Group
	// nodes' endpoints.
	DegradeLink
	// SlowNode degrades every link to and from one node's endpoints.
	SlowNode
	// TornWrite truncates the final WAL record of a crashed node mid-frame,
	// modeling a power cut during a partially flushed write. Replay stops at
	// the last valid prefix and the node re-fetches the suffix on restart.
	// Only meaningful between a CrashNode and its RestartNode, and only when
	// the run has a WAL configured; otherwise a no-op.
	TornWrite
	// CorruptRecord flips bytes inside a mid-log WAL record of a crashed
	// node, modeling latent media corruption. CRC verification stops replay
	// at the last valid prefix; the corrupted suffix is re-fetched on
	// restart. Same applicability rules as TornWrite.
	CorruptRecord
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CrashNode:
		return "crash"
	case RestartNode:
		return "restart"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case DegradeLink:
		return "degrade"
	case SlowNode:
		return "slow"
	case TornWrite:
		return "torn-write"
	case CorruptRecord:
		return "corrupt-record"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the offset from injection start (load start in a benchmark).
	At time.Duration
	// Kind selects the fault.
	Kind Kind
	// Node is the target of CrashNode, RestartNode, and SlowNode.
	Node int
	// Group is the minority side of a Partition, or the nodes whose links a
	// DegradeLink affects (empty = every link).
	Group []int
	// Extra is the added one-way latency for DegradeLink and SlowNode.
	Extra time.Duration
	// Loss is the per-message loss probability in [0, 1) for DegradeLink
	// and SlowNode.
	Loss float64
}

// Schedule is a timeline of fault events. Events need not be pre-sorted;
// the injector applies them in time order (ties keep their declaration
// order).
type Schedule struct {
	Events []Event `json:"events"`
}

// sorted returns the events in stable time order.
func (s Schedule) sorted() []Event {
	out := make([]Event, len(s.Events))
	copy(out, s.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks the schedule against a run of the given length over a
// network of the given node count. It rejects events outside [0, runLen],
// out-of-range node targets, empty or network-covering partition groups,
// loss probabilities outside [0, 1), overlapping crashes of the same node
// (double-crash without an intervening restart), and overlapping
// partitions (a second Partition before Heal).
func (s Schedule) Validate(runLen time.Duration, nodes int) error {
	crashed := make(map[int]bool)
	partitioned := false
	for i, ev := range s.sorted() {
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d (%s) at negative offset %v", i, ev.Kind, ev.At)
		}
		if ev.At > runLen {
			return fmt.Errorf("faults: event %d (%s) at %v is past the run end %v", i, ev.Kind, ev.At, runLen)
		}
		switch ev.Kind {
		case CrashNode, RestartNode, SlowNode, TornWrite, CorruptRecord:
			if ev.Node < 0 || ev.Node >= nodes {
				return fmt.Errorf("faults: event %d (%s) targets node %d of %d", i, ev.Kind, ev.Node, nodes)
			}
		case Partition:
			if len(ev.Group) == 0 {
				return fmt.Errorf("faults: event %d: partition with an empty group", i)
			}
			if len(ev.Group) >= nodes {
				return fmt.Errorf("faults: event %d: partition group of %d covers the whole %d-node network", i, len(ev.Group), nodes)
			}
		case Heal:
		case DegradeLink:
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(ev.Kind))
		}
		for _, g := range ev.Group {
			if g < 0 || g >= nodes {
				return fmt.Errorf("faults: event %d (%s) group targets node %d of %d", i, ev.Kind, g, nodes)
			}
		}
		if ev.Kind == DegradeLink || ev.Kind == SlowNode {
			if ev.Loss < 0 || ev.Loss >= 1 {
				return fmt.Errorf("faults: event %d (%s) loss %.2f outside [0, 1)", i, ev.Kind, ev.Loss)
			}
			if ev.Extra < 0 {
				return fmt.Errorf("faults: event %d (%s) negative extra latency %v", i, ev.Kind, ev.Extra)
			}
		}
		switch ev.Kind {
		case CrashNode:
			if crashed[ev.Node] {
				return fmt.Errorf("faults: event %d crashes node %d, which is already down (overlapping crash)", i, ev.Node)
			}
			crashed[ev.Node] = true
		case RestartNode:
			delete(crashed, ev.Node)
		case Partition:
			if partitioned {
				return fmt.Errorf("faults: event %d opens a partition while one is active (overlapping partition)", i)
			}
			partitioned = true
		case Heal:
			partitioned = false
		case TornWrite, CorruptRecord:
			if !crashed[ev.Node] {
				return fmt.Errorf("faults: event %d (%s) targets node %d, which is not crashed — log corruption only applies between a crash and its restart", i, ev.Kind, ev.Node)
			}
		}
	}
	return nil
}

// Bounds reports the fault window: the offset of the first fault and of
// the last recovering event (Heal or RestartNode). ok is false when the
// schedule is empty. A schedule without a recovering event reports
// lastRecover equal to the last event.
func (s Schedule) Bounds() (firstFault, lastRecover time.Duration, ok bool) {
	evs := s.sorted()
	if len(evs) == 0 {
		return 0, 0, false
	}
	firstFault = evs[0].At
	lastRecover = evs[len(evs)-1].At
	for _, ev := range evs {
		if ev.Kind == Heal || ev.Kind == RestartNode {
			lastRecover = ev.At
		}
	}
	return firstFault, lastRecover, true
}

// Preset names understood by NewPreset and a scenario's Faults.Preset.
const (
	PresetCrashMinority = "crash-minority"
	PresetPartitionHeal = "partition-heal"
	PresetDegradedWAN   = "degraded-wan"
)

// PresetNames lists the named schedules.
func PresetNames() []string {
	return []string{PresetCrashMinority, PresetPartitionHeal, PresetDegradedWAN}
}

// NewPreset builds a named schedule for a network of the given size over a
// load window of the given length:
//
//   - crash-minority: a tolerable minority of nodes (⌊(n-1)/3⌋, at least
//     one) crashes at 30% of the window and restarts at 60%.
//   - partition-heal: the last ⌈n/4⌉ nodes are partitioned away at 30% and
//     healed at 60%.
//   - degraded-wan: from 20% to 80%, every link gains load/60 extra
//     latency and 2% loss — the cluster stays connected but slow.
func NewPreset(name string, nodes int, load time.Duration) (Schedule, error) {
	if nodes < 2 {
		return Schedule{}, fmt.Errorf("faults: preset %q needs at least 2 nodes, got %d", name, nodes)
	}
	at := func(frac float64) time.Duration {
		return time.Duration(frac * float64(load))
	}
	switch name {
	case PresetCrashMinority:
		f := (nodes - 1) / 3
		if f < 1 {
			f = 1
		}
		var evs []Event
		for i := 0; i < f; i++ {
			evs = append(evs, Event{At: at(0.3), Kind: CrashNode, Node: nodes - 1 - i})
		}
		for i := 0; i < f; i++ {
			evs = append(evs, Event{At: at(0.6), Kind: RestartNode, Node: nodes - 1 - i})
		}
		return Schedule{Events: evs}, nil

	case PresetPartitionHeal:
		m := (nodes + 3) / 4
		if m >= nodes {
			m = nodes - 1
		}
		group := make([]int, 0, m)
		for i := nodes - m; i < nodes; i++ {
			group = append(group, i)
		}
		return Schedule{Events: []Event{
			{At: at(0.3), Kind: Partition, Group: group},
			{At: at(0.6), Kind: Heal},
		}}, nil

	case PresetDegradedWAN:
		return Schedule{Events: []Event{
			{At: at(0.2), Kind: DegradeLink, Extra: load / 60, Loss: 0.02},
			{At: at(0.8), Kind: Heal},
		}}, nil

	default:
		return Schedule{}, fmt.Errorf("faults: unknown preset %q (want one of %v)", name, PresetNames())
	}
}
