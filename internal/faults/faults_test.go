package faults

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
)

// stubDriver records crash/restart calls for injector tests; the chassis
// answers the hooks it does not script (no transport, no WAL).
type stubDriver struct {
	*systems.Cluster
	calls    []string
	crashes  int
	restarts int
	tr       *network.Transport
	// recovery scripts the waits of every restart; left is what the
	// current one has still to wait.
	recovery []time.Duration
	left     []time.Duration
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
	if node < 0 || node >= s.NodeCount() {
		return systems.ErrNodeDown
	}
	s.crashes++
	s.calls = append(s.calls, fmt.Sprintf("crash:%d", node))
	return nil
}

func (s *stubDriver) RestartNode(node int) (time.Duration, error) {
	if node < 0 || node >= s.NodeCount() {
		return 0, systems.ErrNodeDown
	}
	s.restarts++
	s.calls = append(s.calls, fmt.Sprintf("restart:%d", node))
	s.left = s.recovery
	return s.ResumeNode(node), nil
}

// ResumeNode hands out the scripted recovery waits one by one.
func (s *stubDriver) ResumeNode(int) time.Duration {
	if len(s.left) == 0 {
		return 0
	}
	wait := s.left[0]
	s.left = s.left[1:]
	return wait
}

func (s *stubDriver) callLog() []string {
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
	in := NewInjector(d, Schedule{}, clocktest.New(t))

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
	in := NewInjector(d, Schedule{}, clocktest.New(t))

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
	in := NewInjector(d, Schedule{}, clocktest.New(t))
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
	clk := clocktest.New(t)
	d.tr = network.NewTransport(clk, nil)
	defer d.tr.Stop()
	for i := 0; i < 4; i++ {
		d.tr.Register(fmt.Sprintf("n%d", i), func(network.Message) {})
	}

	in := NewInjector(d, Schedule{}, clk)
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

// TestInjectorStopRestartsInNodeOrder: Stop restarts the nodes the
// schedule left crashed in ascending node order, whatever order they went
// down in, every time.
func TestInjectorStopRestartsInNodeOrder(t *testing.T) {
	clk := clocktest.New(t)
	want := "[restart:0 restart:1 restart:2 restart:3]"
	for run := 0; run < 20; run++ {
		d := newStubDriver(4)
		in := NewInjector(d, Schedule{}, clk)
		for _, node := range []int{3, 1, 2, 0} {
			if err := in.Apply(Event{Kind: CrashNode, Node: node}); err != nil {
				t.Fatal(err)
			}
		}
		in.Stop()
		if got := fmt.Sprint(d.callLog()[4:]); got != want {
			t.Fatalf("run %d: Stop made %s, want %s", run, got, want)
		}
	}
}

// TestInjectorDegradeAllLinks: a group-less DegradeLink touches every
// directed link.
func TestInjectorDegradeAllLinks(t *testing.T) {
	d := &transportStub{newStubDriver(3)}
	clk := clocktest.New(t)
	d.tr = network.NewTransport(clk, nil)
	defer d.tr.Stop()
	for i := 0; i < 3; i++ {
		d.tr.Register(fmt.Sprintf("n%d", i), func(network.Message) {})
	}
	in := NewInjector(d, Schedule{}, clk)
	if err := in.Apply(Event{Kind: DegradeLink, Extra: time.Millisecond, Loss: 0.1}); err != nil {
		t.Fatal(err)
	}
	if got, want := d.tr.DegradedCount(), 6; got != want { // 3 endpoints × 2 directions each pair
		t.Fatalf("degraded links = %d, want %d", got, want)
	}
}

// TestInjectorWaitsOutRecoveries: a restart's recovery waits run on the
// injector's own timeline — entries that fall due meanwhile apply once it
// is over, at their offsets or later, and the restart is recorded when its
// node is up — and Stop, called mid-recovery, sleeps out the rest of it and
// the recoveries of its own restarts before it returns.
func TestInjectorWaitsOutRecoveries(t *testing.T) {
	ms := time.Millisecond
	d := newStubDriver(4)
	d.recovery = []time.Duration{30 * ms, 20 * ms}
	clk := clocktest.New(t)
	start := clk.Now()
	in := NewInjector(d, Schedule{Events: []Event{
		{At: 10 * ms, Kind: CrashNode, Node: 1},
		{At: 20 * ms, Kind: CrashNode, Node: 2},
		{At: 30 * ms, Kind: RestartNode, Node: 1},
		{At: 40 * ms, Kind: CrashNode, Node: 3}, // due mid-recovery
		{At: 90 * ms, Kind: RestartNode, Node: 2},
	}}, clk)
	in.Start()
	clk.Sleep(100 * ms) // node 2's recovery runs until 140ms
	in.Stop()
	var at []string
	for _, a := range in.Applied() {
		at = append(at, fmt.Sprintf("%v@%v", a.Event.Kind, a.At.Sub(start)))
	}
	if want := "[crash@10ms crash@20ms restart@80ms crash@80ms restart@140ms]"; fmt.Sprint(at) != want {
		t.Fatalf("applied %v, want %s", at, want)
	}
	if got := clk.Since(start); got != 190*ms {
		t.Fatalf("Stop returned at +%v, want +190ms: after node 2's recovery and node 3's", got)
	}
	if want := "[crash:1 crash:2 restart:1 crash:3 restart:2 restart:3]"; fmt.Sprint(d.callLog()) != want {
		t.Fatalf("calls = %v, want %s", d.callLog(), want)
	}
}

// TestInjectorAppliesDueEntriesInSameRun: entries already due when the
// timeline runs apply in that one run, in schedule order — the run Start
// queues, which the first Sleep makes at the start instant — and a later
// entry waits for its offset.
func TestInjectorAppliesDueEntriesInSameRun(t *testing.T) {
	ms := time.Millisecond
	d := newStubDriver(4)
	clk := clock.NewAutoVirtual()
	start := clk.Now()
	in := NewInjector(d, Schedule{Events: []Event{
		{At: 0, Kind: CrashNode, Node: 2},
		{At: 0, Kind: CrashNode, Node: 1},
		{At: 10 * ms, Kind: CrashNode, Node: 3},
	}}, clk)
	in.Start()
	if got := fmt.Sprint(d.callLog()); got != "[]" {
		t.Fatalf("calls after Start = %s, want none before a Sleep", got)
	}
	clk.Sleep(5 * ms)
	if got := fmt.Sprint(d.callLog()); got != "[crash:2 crash:1]" {
		t.Fatalf("calls after the first Sleep = %s, want both entries due at 0 applied", got)
	}
	if runs := clk.KernelStats().Events; runs != 1 {
		t.Fatalf("the timeline ran %d times for the entries due at Start, want 1", runs)
	}
	clk.Sleep(15 * ms)
	var at []string
	for _, a := range in.Applied() {
		at = append(at, fmt.Sprintf("%v:%d@%v", a.Event.Kind, a.Event.Node, a.At.Sub(start)))
	}
	if want := "[crash:2@0s crash:1@0s crash:3@10ms]"; fmt.Sprint(at) != want {
		t.Fatalf("applied %v, want %s", at, want)
	}
	in.Stop()
}

// TestInjectorHealRecoversNodesOneAfterAnother: a Heal restarts the
// partitioned nodes one at a time on the timeline, each once the one before
// it is up; the heal is recorded when the last is up, and an entry that
// fell due meanwhile applies then.
func TestInjectorHealRecoversNodesOneAfterAnother(t *testing.T) {
	ms := time.Millisecond
	d := newStubDriver(4)
	d.recovery = []time.Duration{5 * ms, 5 * ms}
	clk := clocktest.New(t)
	start := clk.Now()
	in := NewInjector(d, Schedule{Events: []Event{
		{At: 10 * ms, Kind: Partition, Group: []int{1, 2}},
		{At: 20 * ms, Kind: Heal},
		{At: 25 * ms, Kind: CrashNode, Node: 3}, // due while node 1 recovers
	}}, clk)
	in.Start()
	clk.Sleep(25 * ms)
	if got := fmt.Sprint(d.callLog()); got != "[crash:1 crash:2 restart:1]" {
		t.Fatalf("calls at 25ms = %s, want node 2 waiting behind node 1's recovery", got)
	}
	clk.Sleep(10 * ms)
	if got := fmt.Sprint(d.callLog()); got != "[crash:1 crash:2 restart:1 restart:2]" {
		t.Fatalf("calls at 35ms = %s, want node 2 restarted once node 1 was up", got)
	}
	clk.Sleep(10 * ms)
	var at []string
	for _, a := range in.Applied() {
		at = append(at, fmt.Sprintf("%v@%v", a.Event.Kind, a.At.Sub(start)))
	}
	if want := "[partition@10ms heal@40ms crash@40ms]"; fmt.Sprint(at) != want {
		t.Fatalf("applied %v, want %s", at, want)
	}
	in.Stop()
}

// TestInjectorApplySleepsOutRecovery: Apply of a restart returns once the
// node's recovery waits have passed on the caller's clock, and records the
// restart at that instant.
func TestInjectorApplySleepsOutRecovery(t *testing.T) {
	ms := time.Millisecond
	d := newStubDriver(4)
	d.recovery = []time.Duration{30 * ms, 20 * ms}
	clk := clocktest.New(t)
	start := clk.Now()
	in := NewInjector(d, Schedule{}, clk)
	if err := in.Apply(Event{Kind: CrashNode, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Event{Kind: RestartNode, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if got := clk.Since(start); got != 50*ms {
		t.Fatalf("Apply returned at +%v, want +50ms, after both recovery waits", got)
	}
	applied := in.Applied()
	if len(applied) != 2 || applied[1].Event.Kind != RestartNode || applied[1].At.Sub(start) != 50*ms {
		t.Fatalf("applied %+v, want the restart recorded at +50ms", applied)
	}
}

// TestInjectorStopFinishesAHealInProgress: Stop, called while a Heal waits
// on its first node's recovery, sleeps out the heal — the rest of that
// recovery, then the next node's — and restarts no node twice.
func TestInjectorStopFinishesAHealInProgress(t *testing.T) {
	ms := time.Millisecond
	d := newStubDriver(4)
	d.recovery = []time.Duration{5 * ms, 5 * ms}
	clk := clocktest.New(t)
	start := clk.Now()
	in := NewInjector(d, Schedule{Events: []Event{
		{At: 10 * ms, Kind: Partition, Group: []int{1, 2}},
		{At: 20 * ms, Kind: Heal},
	}}, clk)
	in.Start()
	clk.Sleep(25 * ms)
	in.Stop()
	if got := clk.Since(start); got != 40*ms {
		t.Fatalf("Stop returned at +%v, want +40ms, once node 2 was up", got)
	}
	if got := fmt.Sprint(d.callLog()); got != "[crash:1 crash:2 restart:1 restart:2]" {
		t.Fatalf("calls = %s, want each partitioned node restarted once", got)
	}
	if a := in.Applied(); len(a) != 2 || a[1].Event.Kind != Heal || a[1].At.Sub(start) != 40*ms {
		t.Fatalf("applied %+v, want the heal recorded at +40ms", a)
	}
}
