package faults

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
)

// stubDriver records crash/restart calls for injector tests; the chassis
// answers the hooks it does not script (no transport, no WAL).
type stubDriver struct {
	*systems.Cluster
	mu       sync.Mutex
	calls    []string
	crashes  int
	restarts int
	tr       *network.Transport
}

var _ systems.Driver = (*stubDriver)(nil)

func newStubDriver(nodes int) *stubDriver {
	return &stubDriver{
		Cluster: systems.NewCluster("stub", systems.NodeIDs("stub", nodes), systems.Env{}, func() int { return 0 }),
	}
}

func (s *stubDriver) Start() error                             { return nil }
func (s *stubDriver) Stop()                                    {}
func (s *stubDriver) Submit(_ int, _ *chain.Transaction) error { return nil }
func (s *stubDriver) Preload([]chain.Operation) error          { return nil }
func (s *stubDriver) Subscribe(_ string, _ systems.EventFunc)  {}

func (s *stubDriver) CrashNode(node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node < 0 || node >= s.NodeCount() {
		return systems.ErrNodeDown
	}
	s.crashes++
	s.calls = append(s.calls, fmt.Sprintf("crash:%d", node))
	return nil
}

func (s *stubDriver) RestartNode(node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node < 0 || node >= s.NodeCount() {
		return systems.ErrNodeDown
	}
	s.restarts++
	s.calls = append(s.calls, fmt.Sprintf("restart:%d", node))
	return nil
}

func (s *stubDriver) callLog() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.calls))
	copy(out, s.calls)
	return out
}

// transportStub extends stubDriver with a real transport for link-event
// tests.
type transportStub struct {
	*stubDriver
}

func (s *transportStub) FaultTransport() *network.Transport { return s.tr }
func (s *transportStub) NodeEndpoints(node int) []string {
	return []string{fmt.Sprintf("n%d", node)}
}

func TestScheduleValidateCatchesBadEvents(t *testing.T) {
	run := 10 * time.Second
	cases := []struct {
		name string
		s    Schedule
	}{
		{"negative offset", Schedule{Events: []Event{{At: -time.Second, Kind: CrashNode, Node: 0}}}},
		{"past run end", Schedule{Events: []Event{{At: 11 * time.Second, Kind: CrashNode, Node: 0}}}},
		{"node out of range", Schedule{Events: []Event{{At: 0, Kind: CrashNode, Node: 4}}}},
		{"restart out of range", Schedule{Events: []Event{{At: 0, Kind: RestartNode, Node: -1}}}},
		{"empty partition", Schedule{Events: []Event{{At: 0, Kind: Partition}}}},
		{"partition covers network", Schedule{Events: []Event{{At: 0, Kind: Partition, Group: []int{0, 1, 2, 3}}}}},
		{"partition group out of range", Schedule{Events: []Event{{At: 0, Kind: Partition, Group: []int{7}}}}},
		{"loss out of range", Schedule{Events: []Event{{At: 0, Kind: DegradeLink, Loss: 1.0}}}},
		{"negative extra", Schedule{Events: []Event{{At: 0, Kind: DegradeLink, Extra: -time.Millisecond}}}},
		{"double crash", Schedule{Events: []Event{
			{At: time.Second, Kind: CrashNode, Node: 1},
			{At: 2 * time.Second, Kind: CrashNode, Node: 1},
		}}},
		{"overlapping partition", Schedule{Events: []Event{
			{At: time.Second, Kind: Partition, Group: []int{3}},
			{At: 2 * time.Second, Kind: Partition, Group: []int{2}},
		}}},
		{"unknown kind", Schedule{Events: []Event{{At: 0, Kind: Kind(99)}}}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(run, 4); err == nil {
			t.Errorf("%s: Validate accepted an invalid schedule", tc.name)
		}
	}
}

func TestScheduleValidateAcceptsSaneTimelines(t *testing.T) {
	s := Schedule{Events: []Event{
		// Declared out of order on purpose: validation sorts by time.
		{At: 6 * time.Second, Kind: Heal},
		{At: 3 * time.Second, Kind: Partition, Group: []int{3}},
		{At: time.Second, Kind: CrashNode, Node: 1},
		{At: 2 * time.Second, Kind: RestartNode, Node: 1},
		{At: 7 * time.Second, Kind: CrashNode, Node: 1}, // re-crash after restart is fine
		{At: 8 * time.Second, Kind: RestartNode, Node: 1},
		{At: 9 * time.Second, Kind: DegradeLink, Extra: 5 * time.Millisecond, Loss: 0.1},
		{At: 9 * time.Second, Kind: SlowNode, Node: 2, Extra: time.Millisecond},
	}}
	if err := s.Validate(10*time.Second, 4); err != nil {
		t.Fatalf("Validate rejected a sane schedule: %v", err)
	}
}

func TestScheduleBounds(t *testing.T) {
	s := Schedule{Events: []Event{
		{At: 6 * time.Second, Kind: Heal},
		{At: 3 * time.Second, Kind: Partition, Group: []int{3}},
	}}
	first, last, ok := s.Bounds()
	if !ok || first != 3*time.Second || last != 6*time.Second {
		t.Fatalf("Bounds = (%v, %v, %v), want (3s, 6s, true)", first, last, ok)
	}
	if _, _, ok := (Schedule{}).Bounds(); ok {
		t.Fatal("empty schedule reported bounds")
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		s, err := NewPreset(name, 4, 10*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Events) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if err := s.Validate(11*time.Second, 4); err != nil {
			t.Fatalf("%s: preset does not validate: %v", name, err)
		}
	}
	if _, err := NewPreset("no-such-preset", 4, time.Second); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestInjectorDeterministicUnderVirtualClock replays the same schedule
// twice under a virtual clock and requires identical call sequences at
// identical virtual instants.
func TestInjectorDeterministicUnderVirtualClock(t *testing.T) {
	sched := Schedule{Events: []Event{
		{At: 100 * time.Millisecond, Kind: CrashNode, Node: 3},
		{At: 200 * time.Millisecond, Kind: Partition, Group: []int{2}},
		{At: 300 * time.Millisecond, Kind: Heal},
		{At: 400 * time.Millisecond, Kind: RestartNode, Node: 3},
	}}

	runOnce := func() ([]string, []time.Time) {
		d := newStubDriver(4)
		clk := clock.NewAutoVirtual()
		h := clock.Register(clk, "test")
		defer h.Close()
		in := NewInjector(d, sched, clk)
		in.Start()
		// Lockstep: sleep in 50ms steps. The injector's deadline sorts
		// before the test's sleep at the same instant ("fault-injector" <
		// "test"), so each step returns with every event due by then
		// applied.
		for step, want := 1, 0; step <= 8; step++ {
			clk.Sleep(50 * time.Millisecond)
			if step%2 == 0 {
				want++
			}
			if got := len(in.Applied()); got != want {
				t.Fatalf("step %d: applied %d events, want %d", step, got, want)
			}
		}
		in.Stop()
		var ats []time.Time
		for _, a := range in.Applied() {
			ats = append(ats, a.At)
		}
		return d.callLog(), ats
	}

	calls1, ats1 := runOnce()
	calls2, ats2 := runOnce()
	want := []string{"crash:3", "crash:2", "restart:2", "restart:3"}
	if len(calls1) != len(want) {
		t.Fatalf("calls = %v, want %v", calls1, want)
	}
	for i := range want {
		if calls1[i] != want[i] || calls2[i] != want[i] {
			t.Fatalf("run1 = %v, run2 = %v, want %v", calls1, calls2, want)
		}
	}
	for i := range ats1 {
		if !ats1[i].Equal(ats2[i]) {
			t.Fatalf("virtual apply times differ between runs: %v vs %v", ats1, ats2)
		}
		if got, want := ats1[i], clock.SimEpoch.Add(sched.Events[i].At); !got.Equal(want) {
			t.Fatalf("event %d applied at %v, want its schedule time %v", i, got, want)
		}
	}
}

// TestInjectorIdempotence: double-crash, heal-without-partition, and
// restart-without-crash are no-ops, not panics.
func TestInjectorIdempotence(t *testing.T) {
	d := newStubDriver(4)
	in := NewInjector(d, Schedule{}, clock.New())

	if err := in.Apply(Event{Kind: CrashNode, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Event{Kind: CrashNode, Node: 1}); err != nil {
		t.Fatalf("double crash errored: %v", err)
	}
	if d.crashes != 1 {
		t.Fatalf("driver saw %d crashes, want 1 (double-crash must be a no-op)", d.crashes)
	}

	if err := in.Apply(Event{Kind: Heal}); err != nil {
		t.Fatalf("heal without partition errored: %v", err)
	}
	if d.restarts != 0 {
		t.Fatal("heal without partition restarted nodes")
	}

	if err := in.Apply(Event{Kind: RestartNode, Node: 2}); err != nil {
		t.Fatalf("restart of a running node errored: %v", err)
	}
	if d.restarts != 0 {
		t.Fatal("restart of a running node reached the driver")
	}

	// A partition over an already-crashed node must not double-crash it,
	// and healing must not restart it (its explicit crash owns it).
	if err := in.Apply(Event{Kind: Partition, Group: []int{1, 3}}); err != nil {
		t.Fatal(err)
	}
	if d.crashes != 2 {
		t.Fatalf("driver saw %d crashes, want 2 (partition must skip the crashed node)", d.crashes)
	}
	if err := in.Apply(Event{Kind: Partition, Group: []int{2}}); err != nil {
		t.Fatalf("overlapping partition errored: %v", err)
	}
	if d.crashes != 2 {
		t.Fatal("overlapping partition crashed more nodes")
	}
	if err := in.Apply(Event{Kind: Heal}); err != nil {
		t.Fatal(err)
	}
	if d.restarts != 1 {
		t.Fatalf("heal restarted %d nodes, want 1 (node 3 only)", d.restarts)
	}
}

// TestInjectorHealLeavesExplicitCrashesDown: a node explicitly crashed
// during an active partition is owned by its own RestartNode event — Heal
// must not resurrect it early.
func TestInjectorHealLeavesExplicitCrashesDown(t *testing.T) {
	d := newStubDriver(4)
	in := NewInjector(d, Schedule{}, clock.New())

	if err := in.Apply(Event{Kind: Partition, Group: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Event{Kind: CrashNode, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Event{Kind: Heal}); err != nil {
		t.Fatal(err)
	}
	if got := d.callLog(); len(got) != 4 || got[3] != "restart:2" {
		t.Fatalf("call log = %v, want heal to restart only node 2", got)
	}
	if err := in.Apply(Event{Kind: RestartNode, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if d.restarts != 2 {
		t.Fatalf("restarts = %d, want 2 (node 1 recovered by its own event)", d.restarts)
	}
}

// TestInjectorDegradeWithoutTransportNotRecorded: link events against a
// driver with no message fabric are pure no-ops and must not be reported
// as applied.
func TestInjectorDegradeWithoutTransportNotRecorded(t *testing.T) {
	d := newStubDriver(4) // the chassis' FaultTransport: nil
	in := NewInjector(d, Schedule{}, clock.New())
	if err := in.Apply(Event{Kind: DegradeLink, Extra: time.Millisecond, Loss: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Event{Kind: SlowNode, Node: 1, Extra: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if n := len(in.Applied()); n != 0 {
		t.Fatalf("Applied() reports %d events for a fabric-less driver, want 0", n)
	}
}

// TestInjectorStopRestoresHealth: Stop restarts everything the schedule
// left broken, including transport degradations.
func TestInjectorStopRestoresHealth(t *testing.T) {
	d := &transportStub{newStubDriver(4)}
	d.tr = network.NewTransport(clock.New(), nil)
	defer d.tr.Stop()
	for i := 0; i < 4; i++ {
		d.tr.Register(fmt.Sprintf("n%d", i), func(network.Message) {})
	}

	in := NewInjector(d, Schedule{}, clock.New())
	if err := in.Apply(Event{Kind: CrashNode, Node: 0}); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Event{Kind: Partition, Group: []int{3}}); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Event{Kind: SlowNode, Node: 1, Extra: time.Millisecond, Loss: 0.5}); err != nil {
		t.Fatal(err)
	}
	if d.tr.DegradedCount() == 0 {
		t.Fatal("SlowNode degraded no links")
	}
	in.Stop()
	if d.restarts != 2 {
		t.Fatalf("Stop restarted %d nodes, want 2", d.restarts)
	}
	if d.tr.DegradedCount() != 0 {
		t.Fatal("Stop left link degradations behind")
	}
}

// TestInjectorDegradeAllLinks: a group-less DegradeLink touches every
// directed link.
func TestInjectorDegradeAllLinks(t *testing.T) {
	d := &transportStub{newStubDriver(3)}
	d.tr = network.NewTransport(clock.New(), nil)
	defer d.tr.Stop()
	for i := 0; i < 3; i++ {
		d.tr.Register(fmt.Sprintf("n%d", i), func(network.Message) {})
	}
	in := NewInjector(d, Schedule{}, clock.New())
	if err := in.Apply(Event{Kind: DegradeLink, Extra: time.Millisecond, Loss: 0.1}); err != nil {
		t.Fatal(err)
	}
	if got, want := d.tr.DegradedCount(), 6; got != want { // 3 endpoints × 2 directions each pair
		t.Fatalf("degraded links = %d, want %d", got, want)
	}
}
