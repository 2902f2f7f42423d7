package systems

import (
	"errors"
	"testing"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/wal"
)

// fakePipeline is the smallest driver the chassis can carry: Start and Stop
// are the guard alone, and Submit commits through the entry node's gate.
type fakePipeline struct {
	*LedgerCluster
	entered    []int
	depthCalls int
}

func newFakePipeline(nodes int, w *wal.Options) *fakePipeline {
	p := &fakePipeline{}
	p.LedgerCluster = NewLedgerCluster("Fake", NodeIDs("fake", nodes), Env{Clock: clock.NewAutoVirtual(), WAL: w},
		func() int { p.depthCalls++; return 7 })
	for _, r := range p.Replicas() {
		r.Endpoints = []string{r.ID}
	}
	return p
}

func (p *fakePipeline) Start() error { p.MarkStarted(); return nil }
func (p *fakePipeline) Stop()        { p.MarkStopped() }
func (p *fakePipeline) Submit(entryNode int, _ *chain.Transaction) error {
	i, err := p.Entry(entryNode)
	if err != nil {
		return err
	}
	p.Node(i).Gate.Commit(1, func() { p.entered = append(p.entered, i) })
	return nil
}

var _ Driver = (*fakePipeline)(nil)

func TestClusterBadIndices(t *testing.T) {
	p := newFakePipeline(3, &wal.Options{})
	for _, bad := range []int{-1, 3} {
		if err := p.CrashNode(bad); !errors.Is(err, ErrNodeDown) {
			t.Errorf("CrashNode(%d) = %v, want an ErrNodeDown-wrapped error", bad, err)
		}
		if _, err := p.RestartNode(bad); !errors.Is(err, ErrNodeDown) {
			t.Errorf("RestartNode(%d) = %v, want an ErrNodeDown-wrapped error", bad, err)
		}
		if wait := p.ResumeNode(bad); wait != 0 {
			t.Errorf("ResumeNode(%d) = %v, want 0", bad, wait)
		}
		if log := p.NodeWAL(bad); log != nil {
			t.Errorf("NodeWAL(%d) = %v, want nil", bad, log)
		}
		if eps := p.NodeEndpoints(bad); eps != nil {
			t.Errorf("NodeEndpoints(%d) = %v, want nil", bad, eps)
		}
	}
	if p.NodeWAL(2) == nil {
		t.Error("NodeWAL(2) = nil with a WAL mounted")
	}
	if eps := p.NodeEndpoints(2); len(eps) != 1 || eps[0] != "fake-2" {
		t.Errorf("NodeEndpoints(2) = %v, want [fake-2]", eps)
	}
	if p.Name() != "Fake" || p.NodeCount() != 3 {
		t.Errorf("Name, NodeCount = %q, %d", p.Name(), p.NodeCount())
	}
}

func TestClusterSubmitGuard(t *testing.T) {
	p := newFakePipeline(3, nil)
	if err := p.Submit(0, nil); err != consensus.ErrNotRunning {
		t.Fatalf("Submit before Start = %v, want ErrNotRunning", err)
	}
	if !p.MarkStarted() || p.MarkStarted() {
		t.Fatal("MarkStarted must report true once, then false")
	}
	if err := p.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	for entry, want := range map[int]error{0: nil, 1: ErrNodeDown, 2: nil, 3: nil, 4: ErrNodeDown, 5: nil} {
		if err := p.Submit(entry, nil); err != want {
			t.Errorf("Submit(%d) = %v, want %v", entry, err, want)
		}
	}
	if wait, err := p.RestartNode(1); err != nil || wait != 0 {
		t.Fatalf("RestartNode(1) = (%v, %v), want recovery without a log to need no wait", wait, err)
	}
	if err := p.Submit(4, nil); err != nil {
		t.Fatalf("Submit through the restarted node = %v", err)
	}
	seen := map[int]int{}
	for _, i := range p.entered {
		seen[i]++
	}
	if seen[0] != 2 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("entry nodes %v: entryNode must wrap around 3 nodes", p.entered)
	}
	if !p.MarkStopped() || p.MarkStopped() {
		t.Fatal("MarkStopped must report true once, then false")
	}
	if err := p.Submit(0, nil); err != consensus.ErrNotRunning {
		t.Fatalf("Submit after Stop = %v, want ErrNotRunning", err)
	}
}

func TestClusterRecoveryStats(t *testing.T) {
	plain := newFakePipeline(2, nil)
	if rs, on := plain.RecoveryStats(); on || rs != (RecoveryStats{}) {
		t.Fatalf("without a WAL: %+v, %v; want zero, false", rs, on)
	}

	p := newFakePipeline(2, &wal.Options{})
	p.Start()
	for entry := 0; entry < 5; entry++ { // node 0 commits 3 records, node 1 commits 2
		if err := p.Submit(entry, nil); err != nil {
			t.Fatal(err)
		}
	}
	rs, on := p.RecoveryStats()
	if !on {
		t.Fatal("RecoveryStats reports durability off with a WAL mounted")
	}
	want := p.Node(0).Gate.Stats().Add(p.Node(1).Gate.Stats())
	if rs != want || rs.LogRecords != 5 {
		t.Fatalf("RecoveryStats = %+v, want the gates' sum %+v with 5 records", rs, want)
	}
}

func TestClusterQueueSnapshot(t *testing.T) {
	// Batch policy: appends stay unsynced until the batch fills.
	p := newFakePipeline(2, &wal.Options{Fsync: wal.FsyncBatch, BatchRecords: 64})
	p.Start()
	for entry := 0; entry < 3; entry++ {
		if err := p.Submit(entry, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	p.Node(1).Gate.Commit(1, func() {}) // buffers behind the crashed gate
	p.Node(1).Gate.Commit(1, func() {})
	p.Node(0).Hub.Committed(Event{TxID: [32]byte{1}, Client: "c"}, clock.SimEpoch) // 1 of 2 nodes: in flight

	qs := p.QueueSnapshot()
	if p.depthCalls != 1 || qs.MempoolDepth != 7 {
		t.Errorf("depth hook called %d times, MempoolDepth = %d; want once, 7", p.depthCalls, qs.MempoolDepth)
	}
	if qs.HubInflight != 1 || qs.GateBacklog != 2 || qs.NetPending != 0 {
		t.Errorf("HubInflight, GateBacklog, NetPending = %d, %d, %d; want 1, 2, 0", qs.HubInflight, qs.GateBacklog, qs.NetPending)
	}
	var live int64
	unsynced := 0
	for i := 0; i < 2; i++ {
		log := p.NodeWAL(i)
		live += int64(log.Stats().LiveBytes)
		unsynced += log.UnsyncedRecords()
	}
	if live == 0 || unsynced == 0 {
		t.Fatalf("the logs hold %d live bytes and %d unsynced records: the test must exercise both", live, unsynced)
	}
	if qs.WALLiveBytes != live || qs.WALUnsynced != unsynced {
		t.Errorf("WALLiveBytes, WALUnsynced = %d, %d; want the logs' sums %d, %d", qs.WALLiveBytes, qs.WALUnsynced, live, unsynced)
	}
}

// TestClusterChassisDefaults pins what a bare chassis answers for the hooks
// a driver leaves to it: no sheds, nothing held across phases, no fabric to
// degrade, no endpoints, no log.
func TestClusterChassisDefaults(t *testing.T) {
	c := NewCluster("Bare", NodeIDs("bare", 2), Env{}, func() int { return 0 })
	if cc := c.ConflictCounts(); cc != nil {
		t.Errorf("ConflictCounts = %v, want nil", cc)
	}
	if !c.Drained() {
		t.Error("Drained = false, want true")
	}
	if tr := c.FaultTransport(); tr != nil {
		t.Errorf("FaultTransport = %v, want nil", tr)
	}
	for i := 0; i < c.NodeCount(); i++ {
		if eps := c.NodeEndpoints(i); eps != nil {
			t.Errorf("NodeEndpoints(%d) = %v, want nil", i, eps)
		}
		if log := c.NodeWAL(i); log != nil {
			t.Errorf("NodeWAL(%d) = %v, want nil", i, log)
		}
	}
	if _, durable := c.RecoveryStats(); durable {
		t.Error("RecoveryStats reports durability on without a WAL")
	}
}

// TestClusterLedgerServesTransport: a LedgerCluster's fault hooks reach its
// shared transport and the endpoints each node owns.
func TestClusterLedgerServesTransport(t *testing.T) {
	p := newFakePipeline(3, nil)
	if p.Transport == nil || p.FaultTransport() != p.Transport {
		t.Fatalf("FaultTransport = %p, want the cluster's Transport %p", p.FaultTransport(), p.Transport)
	}
	for i, r := range p.Replicas() {
		if eps := p.NodeEndpoints(i); len(eps) != 1 || eps[0] != r.ID {
			t.Errorf("NodeEndpoints(%d) = %v, want [%s]", i, eps, r.ID)
		}
	}
}
