package consensus_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/bftcore"
	"github.com/coconut-bench/coconut/internal/consensus/raft"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/network/networktest"
)

// recorder collects decisions per node and checks cross-node agreement.
type recorder struct {
	decided map[string][]consensus.Decision
}

func newRecorder() *recorder {
	return &recorder{decided: make(map[string][]consensus.Decision)}
}

func (r *recorder) fn(id string) consensus.DecideFunc {
	return func(d consensus.Decision) {
		r.decided[id] = append(r.decided[id], d)
	}
}

func (r *recorder) count(id string) int {
	return len(r.decided[id])
}

// checkAgreement verifies that all nodes decided identical prefixes.
func (r *recorder) checkAgreement(t *testing.T, ids []string, upTo int) {
	t.Helper()
	ref := r.decided[ids[0]]
	if len(ref) < upTo {
		t.Fatalf("%s decided %d < %d", ids[0], len(ref), upTo)
	}
	for _, id := range ids[1:] {
		ds := r.decided[id]
		if len(ds) < upTo {
			t.Fatalf("%s decided %d < %d", id, len(ds), upTo)
		}
		for i := 0; i < upTo; i++ {
			if ds[i].Payload != ref[i].Payload {
				t.Fatalf("agreement violation at slot %d: %s=%v, %s=%v",
					i, id, ds[i].Payload, ids[0], ref[i].Payload)
			}
		}
	}
}

// waitCount sleeps on clk until id has decided want slots.
func waitCount(t *testing.T, clk *clock.AutoVirtual, r *recorder, id string, want int, timeout time.Duration) {
	t.Helper()
	clocktest.Until(t, clk, timeout, fmt.Sprintf("%s decides %d", id, want), func() bool { return r.count(id) >= want })
}

// waitLeader sleeps on clk until one of nodes leads and returns it.
func waitLeader(t *testing.T, clk *clock.AutoVirtual, nodes []*raft.Node) *raft.Node {
	t.Helper()
	var leader *raft.Node
	clocktest.Until(t, clk, 5*time.Second, "a leader elected", func() bool {
		for _, n := range nodes {
			if n.Role() == raft.Leader {
				leader = n
			}
		}
		return leader != nil
	})
	return leader
}

// TestRaftAgreementUnderLatency runs Raft over the paper's netem model and
// verifies total-order agreement still holds.
func TestRaftAgreementUnderLatency(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk,
		network.NewNormalLatency(3*time.Millisecond, time.Millisecond, 11))
	defer tr.Stop()
	rec := newRecorder()

	ids := []string{"r0", "r1", "r2"}
	var nodes []*raft.Node
	for i, id := range ids {
		n := raft.New(raft.Config{
			Clock:     clk,
			ID:        id,
			Peers:     ids,
			Transport: tr,
			OnDecide:  rec.fn(id),
			Seed:      int64(i + 1),
		})
		nodes = append(nodes, n)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	// Find the leader and push 20 entries through the jittery network.
	leader := waitLeader(t, clk, nodes)
	for i := 0; i < 20; i++ {
		if err := leader.Submit(fmt.Sprintf("e%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		waitCount(t, clk, rec, id, 20, 10*time.Second)
	}
	rec.checkAgreement(t, ids, 20)
}

// TestBFTAgreementUnderLatency runs the shared three-phase core over the
// netem model.
func TestBFTAgreementUnderLatency(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk,
		network.NewNormalLatency(3*time.Millisecond, time.Millisecond, 13))
	defer tr.Stop()
	rec := newRecorder()

	ids := []string{"v0", "v1", "v2", "v3"}
	var cores []*bftcore.Core
	for _, id := range ids {
		c := bftcore.New(bftcore.Config{
			Clock:        clk,
			ID:           id,
			Peers:        ids,
			Transport:    tr,
			OnDecide:     rec.fn(id),
			RoundTimeout: 300 * time.Millisecond,
		})
		cores = append(cores, c)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, c := range cores {
			c.Stop()
		}
	}()

	for i := 0; i < 15; i++ {
		if err := cores[i%4].Submit(fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(2 * time.Millisecond)
	}
	for _, id := range ids {
		waitCount(t, clk, rec, id, 15, 15*time.Second)
	}
	rec.checkAgreement(t, ids, 15)
}

// TestBFTToleratesOneFaultyValidator isolates one of four validators; the
// remaining quorum of three must keep deciding, and the rejoined node must
// not have produced conflicting decisions.
func TestBFTToleratesOneFaultyValidator(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	rec := newRecorder()

	ids := []string{"v0", "v1", "v2", "v3"}
	var cores []*bftcore.Core
	for _, id := range ids {
		c := bftcore.New(bftcore.Config{
			Clock:        clk,
			ID:           id,
			Peers:        ids,
			Transport:    tr,
			OnDecide:     rec.fn(id),
			RoundTimeout: 100 * time.Millisecond,
		})
		cores = append(cores, c)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, c := range cores {
			c.Stop()
		}
	}()

	// v3 goes dark before any traffic.
	networktest.Disconnect(tr, "v3")
	for i := 0; i < 8; i++ {
		// Submit everywhere that is still connected so round changes can
		// always find a proposer with the payload.
		for _, c := range cores[:3] {
			_ = c.Submit(fmt.Sprintf("p%d", i))
		}
		clk.Sleep(2 * time.Millisecond)
	}
	live := []string{"v0", "v1", "v2"}
	for _, id := range live {
		waitCount(t, clk, rec, id, 8, 20*time.Second)
	}
	rec.checkAgreement(t, live, 8)
	// The isolated validator must have decided nothing by itself.
	if n := rec.count("v3"); n != 0 {
		t.Fatalf("isolated validator decided %d slots alone", n)
	}
}

// TestRaftPartitionMinorityCannotCommit cuts the cluster 2/1 and verifies
// the minority side stops committing (no split brain).
func TestRaftPartitionMinorityCannotCommit(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	rec := newRecorder()

	ids := []string{"r0", "r1", "r2"}
	var nodes []*raft.Node
	for i, id := range ids {
		n := raft.New(raft.Config{
			Clock:     clk,
			ID:        id,
			Peers:     ids,
			Transport: tr,
			OnDecide:  rec.fn(id),
			Seed:      int64(i + 1),
		})
		nodes = append(nodes, n)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	leader := waitLeader(t, clk, nodes)

	// Cut the leader off (a minority of one); it must not commit new entries.
	networktest.Disconnect(tr, leader.Leader())
	before := leader.CommitIndex()
	_ = leader.Submit("orphan")
	clk.Sleep(150 * time.Millisecond)
	if leader.CommitIndex() > before {
		t.Fatal("isolated minority leader advanced its commit index (split brain)")
	}
}
