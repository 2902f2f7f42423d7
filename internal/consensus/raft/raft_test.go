package raft

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/network/networktest"
)

// cluster is a test harness wiring n Raft nodes over one transport.
type cluster struct {
	t         *testing.T
	clk       *clock.AutoVirtual
	transport *network.Transport
	nodes     []*Node

	decided map[string][]consensus.Decision
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	clk := clocktest.New(t)
	c := &cluster{
		t:         t,
		clk:       clk,
		transport: network.NewTransport(clk, nil),
		decided:   make(map[string][]consensus.Decision),
	}
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("orderer-%d", i)
	}
	for i := 0; i < n; i++ {
		id := peers[i]
		node := New(Config{
			Clock:     clk,
			ID:        id,
			Peers:     peers,
			Transport: c.transport,
			OnDecide:  c.recorder(id),
			Seed:      int64(i + 1),
		})
		c.nodes = append(c.nodes, node)
	}
	for _, node := range c.nodes {
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, node := range c.nodes {
			node.Stop()
		}
		c.transport.Stop()
	})
	return c
}

func (c *cluster) recorder(id string) consensus.DecideFunc {
	return func(d consensus.Decision) {
		c.decided[id] = append(c.decided[id], d)
	}
}

// leaderOtherThan returns a node other than old that leads, or nil.
func (c *cluster) leaderOtherThan(old *Node) *Node {
	for _, n := range c.nodes {
		if n != old && n.Role() == Leader {
			return n
		}
	}
	return nil
}

// waitLeader sleeps on the cluster's clock until a node leads.
func (c *cluster) waitLeader(timeout time.Duration) *Node {
	c.t.Helper()
	clocktest.Until(c.t, c.clk, timeout, "a leader elected", func() bool { return c.leaderOtherThan(nil) != nil })
	return c.leaderOtherThan(nil)
}

func (c *cluster) decidedBy(id string) []consensus.Decision {
	return append([]consensus.Decision(nil), c.decided[id]...)
}

// waitDecisions sleeps on the cluster's clock until node id has decided want
// entries and returns its decisions.
func (c *cluster) waitDecisions(id string, want int, timeout time.Duration) []consensus.Decision {
	c.t.Helper()
	clocktest.Until(c.t, c.clk, timeout, fmt.Sprintf("node %s decides %d entries", id, want), func() bool {
		return len(c.decidedBy(id)) >= want
	})
	return c.decidedBy(id)
}

func TestElectsSingleLeader(t *testing.T) {
	c := newCluster(t, 3)
	c.waitLeader(2 * time.Second)
	// Give elections time to settle, then count leaders in the same term.
	c.clk.Sleep(100 * time.Millisecond)
	leaders := 0
	var term uint64
	for _, n := range c.nodes {
		if n.Role() == Leader {
			leaders++
			term = n.Term()
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1 (term %d)", leaders, term)
	}
}

func TestReplicatesAndDecides(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(2 * time.Second)

	for i := 0; i < 5; i++ {
		if err := leader.Submit(fmt.Sprintf("block-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.nodes {
		ds := c.waitDecisions(n.cfg.ID, 5, 3*time.Second)
		for i, d := range ds[:5] {
			if d.Seq != uint64(i+1) {
				t.Fatalf("%s decision %d has seq %d", n.cfg.ID, i, d.Seq)
			}
			if d.Payload != fmt.Sprintf("block-%d", i) {
				t.Fatalf("%s decision %d payload %v", n.cfg.ID, i, d.Payload)
			}
		}
	}
}

func TestAgreementAcrossNodes(t *testing.T) {
	c := newCluster(t, 5)
	leader := c.waitLeader(2 * time.Second)
	for i := 0; i < 20; i++ {
		if err := leader.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	var reference []consensus.Decision
	for i, n := range c.nodes {
		ds := c.waitDecisions(n.cfg.ID, 20, 5*time.Second)[:20]
		if i == 0 {
			reference = ds
			continue
		}
		for j := range ds {
			if ds[j].Payload != reference[j].Payload {
				t.Fatalf("node %s slot %d = %v, node 0 has %v (safety violation)",
					n.cfg.ID, j, ds[j].Payload, reference[j].Payload)
			}
		}
	}
}

func TestFollowerForwardsSubmit(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(2 * time.Second)
	var follower *Node
	for _, n := range c.nodes {
		if n != leader && n.Leader() == leader.cfg.ID {
			follower = n
			break
		}
	}
	if follower == nil {
		// Followers may not have heard a heartbeat yet; wait briefly.
		c.clk.Sleep(50 * time.Millisecond)
		for _, n := range c.nodes {
			if n != leader && n.Leader() == leader.cfg.ID {
				follower = n
				break
			}
		}
	}
	if follower == nil {
		t.Fatal("no follower knows the leader")
	}
	if err := follower.Submit("forwarded"); err != nil {
		t.Fatal(err)
	}
	ds := c.waitDecisions(follower.cfg.ID, 1, 3*time.Second)
	if ds[0].Payload != "forwarded" {
		t.Fatalf("payload = %v", ds[0].Payload)
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(2 * time.Second)
	if err := leader.Submit("before-failover"); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		c.waitDecisions(n.cfg.ID, 1, 3*time.Second)
	}

	// Cut the leader off; a new one must emerge among the rest.
	networktest.Disconnect(c.transport, leader.cfg.ID)
	clocktest.Until(t, c.clk, 3*time.Second, "a new leader after isolating the old one", func() bool {
		return c.leaderOtherThan(leader) != nil
	})
	newLeader := c.leaderOtherThan(leader)
	if err := newLeader.Submit("after-failover"); err != nil {
		t.Fatal(err)
	}
	ds := c.waitDecisions(newLeader.cfg.ID, 2, 3*time.Second)
	if ds[1].Payload != "after-failover" {
		t.Fatalf("payload = %v", ds[1].Payload)
	}
}

func TestSubmitWithoutLeaderKnownFails(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	n := New(Config{
		Clock:     clk,
		ID:        "solo-follower",
		Peers:     []string{"solo-follower", "ghost-1", "ghost-2"},
		Transport: tr,
	})
	start := clk.Now()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	// The test has not slept, so the clock cannot have moved before
	// Submit: no election timeout can have fired, and the node is still a
	// follower that knows no leader.
	if waited := clk.Since(start); waited >= electionTimeout {
		t.Fatalf("%v passed before Submit, want under the %v election timeout", waited, electionTimeout)
	}
	if err := n.Submit("x"); err != consensus.ErrNotLeader {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	n := New(Config{Clock: clk, ID: "a", Peers: []string{"a"}, Transport: tr})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	if err := n.Submit("x"); err != consensus.ErrNotRunning {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

func TestSingleNodeClusterDecidesImmediately(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	var got []any
	n := New(Config{
		Clock:     clk,
		ID:        "solo",
		Peers:     []string{"solo"},
		Transport: tr,
		OnDecide: func(d consensus.Decision) {
			got = append(got, d.Payload)
		},
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	clocktest.Until(t, clk, 2*time.Second, "single node leads", func() bool { return n.Role() == Leader })
	if err := n.Submit("only"); err != nil {
		t.Fatal(err)
	}
	clocktest.Until(t, clk, 2*time.Second, "single-node cluster decides", func() bool { return len(got) == 1 })
}

// TestElectionWaitsForTheElectionTimeout: a lone node stays a follower
// for electionTimeout, then stands and leads before twice that (its
// randomized deadline) plus one heartbeat tick has passed.
func TestElectionWaitsForTheElectionTimeout(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	n := New(Config{Clock: clk, ID: "solo", Peers: []string{"solo"}, Transport: tr, Seed: 1})
	start := clk.Now()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	clk.Sleep(electionTimeout - time.Millisecond)
	if r := n.Role(); r != Follower {
		t.Fatalf("%v before the election timeout: %v, want follower", clk.Since(start), r)
	}
	clocktest.Until(t, clk, electionTimeout+heartbeatInterval, "the lone node leads", func() bool { return n.Role() == Leader })
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Fatal("role strings wrong")
	}
	if Role(9).String() != "Role(9)" {
		t.Fatal("unknown role string wrong")
	}
}

func TestDecisionsAreGapFree(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(2 * time.Second)
	const total = 50
	for i := 0; i < total; i++ {
		if err := leader.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.nodes {
		ds := c.waitDecisions(n.cfg.ID, total, 5*time.Second)
		for i, d := range ds[:total] {
			if d.Seq != uint64(i+1) {
				t.Fatalf("%s: decision %d has seq %d (gap)", n.cfg.ID, i, d.Seq)
			}
		}
	}
}

// TestNonMemberVotesAndAcksAreIgnored drives one node's handlers by hand: a
// candidate of three needs one more vote, and a leader one more
// acknowledgement. Neither may come from an endpoint outside the cluster, and
// an acknowledgement may not be delivered under another sender's name.
func TestNonMemberVotesAndAcksAreIgnored(t *testing.T) {
	clk := clock.NewAutoVirtual()
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	var decided []consensus.Decision
	n := New(Config{
		ID: "n0", Peers: []string{"n0", "n1", "n2"}, Transport: tr, Clock: clk,
		OnDecide: func(d consensus.Decision) { decided = append(decided, d) },
	})
	n.running = true // the handlers are called from here; no run loop
	n.startElection()
	grant := voteResponse{Term: n.Term(), Granted: true}
	for _, outsider := range []string{"n1-gossip", "n2-gossip", "intruder"} {
		n.handle(network.Message{From: outsider, Payload: grant})
	}
	if n.Role() != Candidate {
		t.Fatalf("three non-members' grants made the candidate a %v", n.Role())
	}
	n.handle(network.Message{From: "n1", Payload: grant})
	if n.Role() != Leader {
		t.Fatalf("role = %v after a member's grant, want leader", n.Role())
	}

	if err := n.Submit("payload"); err != nil {
		t.Fatal(err)
	}
	ack := func(from, named string) {
		n.handle(network.Message{From: from,
			Payload: appendResponse{Term: n.Term(), From: named, Success: true, MatchIndex: 1}})
	}
	ack("intruder", "intruder")
	ack("intruder", "n1") // forged
	ack("n2-gossip", "n2")
	if n.CommitIndex() != 0 || len(decided) != 0 {
		t.Fatalf("commitIndex = %d with %d decisions on acknowledgements that must not count", n.CommitIndex(), len(decided))
	}
	ack("n2", "n2")
	if n.CommitIndex() != 1 || len(decided) != 1 || decided[0].Payload != "payload" {
		t.Fatalf("commitIndex = %d, decided %v after a member's acknowledgement, want the payload at 1", n.CommitIndex(), decided)
	}
}

// TestLoneNodeDeliversSubmitsInOrder: a lone leader commits inside
// Submit, so several Submits made at one instant decide one after another,
// each delivered once, in log order, with its payload, and each callback
// runs to completion before the next starts.
func TestLoneNodeDeliversSubmitsInOrder(t *testing.T) {
	c := newCluster(t, 1)
	node := c.nodes[0]
	clocktest.Until(t, c.clk, 2*time.Second, "the lone node leads", func() bool { return node.Role() == Leader })
	at := c.clk.Now()
	for i := 1; i <= 5; i++ {
		if err := node.Submit(fmt.Sprintf("tx-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	got := c.decided[node.cfg.ID]
	if len(got) != 5 {
		t.Fatalf("delivered %d entries at the Submits' instant, want 5", len(got))
	}
	for i, d := range got {
		if d.Seq != uint64(i+1) || d.Payload != fmt.Sprintf("tx-%d", i+1) || !d.DecidedAt.Equal(at) {
			t.Fatalf("delivery %d = %+v, want entry %d, tx-%d, decided at %v", i, d, i+1, i+1, at)
		}
	}
}
