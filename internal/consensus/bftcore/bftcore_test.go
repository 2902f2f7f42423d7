package bftcore

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

type cluster struct {
	t         *testing.T
	clk       *clock.AutoVirtual
	transport *network.Transport
	cores     []*Core

	decided map[string][]consensus.Decision
}

func newCluster(t *testing.T, n int, policy ProposerPolicy) *cluster {
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
		peers[i] = fmt.Sprintf("validator-%d", i)
	}
	for i := 0; i < n; i++ {
		id := peers[i]
		core := New(Config{
			Clock:        clk,
			ID:           id,
			Peers:        peers,
			Transport:    c.transport,
			OnDecide:     c.recorder(id),
			Proposer:     policy,
			RoundTimeout: 200 * time.Millisecond,
		})
		c.cores = append(c.cores, core)
	}
	for _, core := range c.cores {
		if err := core.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, core := range c.cores {
			core.Stop()
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

func (c *cluster) decidedBy(id string) []consensus.Decision {
	return append([]consensus.Decision(nil), c.decided[id]...)
}

// waitDecisions sleeps on the cluster's clock until id has decided want
// payloads and returns its decisions.
func (c *cluster) waitDecisions(id string, want int, timeout time.Duration) []consensus.Decision {
	c.t.Helper()
	clocktest.Until(c.t, c.clk, timeout, fmt.Sprintf("%s decides %d", id, want), func() bool {
		return len(c.decidedBy(id)) >= want
	})
	return c.decidedBy(id)
}

func (c *cluster) submitToProposer(payload any) {
	c.t.Helper()
	for _, core := range c.cores {
		if core.IsProposer() {
			if err := core.Submit(payload); err != nil {
				c.t.Fatal(err)
			}
			return
		}
	}
	c.t.Fatal("no proposer found")
}

func TestRoundRobinPolicy(t *testing.T) {
	peers := []string{"a", "b", "c", "d"}
	if got := RoundRobinByHeight(peers, 1, 0); got != "b" {
		t.Fatalf("height 1 round 0 proposer = %s, want b", got)
	}
	if got := RoundRobinByHeight(peers, 1, 1); got != "c" {
		t.Fatalf("round change must shift proposer, got %s", got)
	}
	if got := RoundRobinByHeight(peers, 5, 0); got != "b" {
		t.Fatalf("height 5 proposer = %s, want b (wraps)", got)
	}
}

func TestStickyPrimaryPolicy(t *testing.T) {
	peers := []string{"a", "b", "c", "d"}
	for h := uint64(0); h < 10; h++ {
		if got := StickyPrimary(peers, h, 0); got != "a" {
			t.Fatalf("primary at height %d = %s, want a (sticky)", h, got)
		}
	}
	if got := StickyPrimary(peers, 0, 1); got != "b" {
		t.Fatalf("primary after view change = %s, want b", got)
	}
}

func TestDecidesSingleValue(t *testing.T) {
	c := newCluster(t, 4, RoundRobinByHeight)
	c.submitToProposer("block-1")
	for _, core := range c.cores {
		ds := c.waitDecisions(core.cfg.ID, 1, 3*time.Second)
		if ds[0].Payload != "block-1" {
			t.Fatalf("%s decided %v", core.cfg.ID, ds[0].Payload)
		}
		if ds[0].Seq != 1 {
			t.Fatalf("%s seq = %d", core.cfg.ID, ds[0].Seq)
		}
	}
	// Istanbul's policy through a running core: the next height has the next
	// proposer, and the decision names who proposed it.
	c.submitToProposer("block-2")
	ds := c.waitDecisions("validator-0", 2, 3*time.Second)
	if ds[0].Proposer != "validator-1" || ds[1].Proposer != "validator-2" {
		t.Fatalf("proposers = %s then %s, want validator-1 then validator-2", ds[0].Proposer, ds[1].Proposer)
	}
}

func TestDecidesManyInOrder(t *testing.T) {
	c := newCluster(t, 4, RoundRobinByHeight)
	const total = 30
	// The submitter is an event submitting one block a millisecond from
	// now on, while the test waits for the decisions.
	i := 0
	var submitter *clock.Event
	submitter = clock.NewEvent(c.clk, "submitter", func() {
		// Submit via any node; non-proposers forward.
		_ = c.cores[i%4].Submit(fmt.Sprintf("block-%d", i))
		if i++; i < total {
			submitter.After(time.Millisecond)
		}
	})
	submitter.Trigger()
	defer submitter.Stop()
	var reference []consensus.Decision
	for i, core := range c.cores {
		ds := c.waitDecisions(core.cfg.ID, total, 10*time.Second)[:total]
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("%s slot %d seq %d (gap)", core.cfg.ID, j, d.Seq)
			}
		}
		if i == 0 {
			reference = ds
			continue
		}
		for j := range ds {
			if ds[j].Payload != reference[j].Payload {
				t.Fatalf("agreement violation at slot %d: %v vs %v",
					j, ds[j].Payload, reference[j].Payload)
			}
		}
	}
}

func TestStickyPrimaryDecides(t *testing.T) {
	c := newCluster(t, 4, StickyPrimary)
	for i, core := range c.cores {
		if core.IsProposer() != (i == 0) {
			t.Fatalf("%s IsProposer = %v: validator-0 alone is the initial primary", core.cfg.ID, core.IsProposer())
		}
	}
	for i := 0; i < 5; i++ {
		c.submitToProposer(i)
	}
	for _, core := range c.cores {
		ds := c.waitDecisions(core.cfg.ID, 5, 5*time.Second)
		for j := 0; j < 5; j++ {
			if ds[j].Payload != j {
				t.Fatalf("%s slot %d = %v", core.cfg.ID, j, ds[j].Payload)
			}
			// No view change happened, so the primary never moved.
			if ds[j].Proposer != "validator-0" {
				t.Fatalf("%s slot %d proposer = %s, want validator-0", core.cfg.ID, j, ds[j].Proposer)
			}
		}
	}
}

func TestRoundChangeOnStalledProposer(t *testing.T) {
	c := newCluster(t, 4, RoundRobinByHeight)
	// Height 1, round 0 proposer is validator-1. Cut it off, then submit to
	// another node, which forwards to the dead proposer; the round change
	// must elect validator-2 and still decide.
	networktest.Disconnect(c.transport, "validator-1")

	var submitter *Core
	for _, core := range c.cores {
		if core.cfg.ID == "validator-0" {
			submitter = core
		}
	}
	_ = submitter.Submit("survivor") // forward to dead proposer fails silently
	// Submit directly into the others' pending queues so the new proposer
	// has the payload after the round change.
	for _, core := range c.cores {
		if core.cfg.ID != "validator-1" {
			_ = core.Submit("survivor")
		}
	}

	// A round change elects validator-2, which decides the payload.
	c.waitDecisions("validator-0", 1, 5*time.Second)
}

func TestSubmitNotRunning(t *testing.T) {
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	core := New(Config{Clock: clk, ID: "x", Peers: []string{"x"}, Transport: tr})
	if err := core.Submit("v"); err != consensus.ErrNotRunning {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

func TestQuorumRequiresEnoughValidators(t *testing.T) {
	// 4 validators, 2 isolated: remaining 2 < quorum(3) must not decide.
	c := newCluster(t, 4, StickyPrimary)
	networktest.Disconnect(c.transport, "validator-2")
	networktest.Disconnect(c.transport, "validator-3")
	_ = c.cores[0].Submit("unsafe")
	c.clk.Sleep(300 * time.Millisecond)
	if len(c.decided["validator-0"]) != 0 {
		t.Fatal("decided without quorum (safety violation)")
	}
}

func TestHeightAdvances(t *testing.T) {
	c := newCluster(t, 4, RoundRobinByHeight)
	if h, p := c.cores[0].Height(), c.cores[0].PendingCount(); h != 1 || p != 0 {
		t.Fatalf("a fresh core is at height %d with %d pending, want 1 and 0", h, p)
	}
	c.submitToProposer("a")
	c.waitDecisions("validator-0", 1, 3*time.Second)
	clocktest.Until(t, c.clk, time.Second, "height 2", func() bool { return c.cores[0].Height() == 2 })
}

// TestNonMemberVotesNeverCompleteAQuorum drives one core's handlers by hand:
// the proposer of four validators, holding its own prepare, hears prepares
// and commits from endpoints that share its transport but not its validator
// set (Quorum's "-gossip" endpoints do). Counted by name they would reach the
// quorum of three twice over and decide; only members' votes may.
func TestNonMemberVotesNeverCompleteAQuorum(t *testing.T) {
	clk := clock.NewAutoVirtual()
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	var decided []consensus.Decision
	peers := []string{"v0", "v1", "v2", "v3"}
	core := New(Config{
		ID: "v1", Peers: peers, Transport: tr, Clock: clk, // v1 proposes height 1
		OnDecide: func(d consensus.Decision) { decided = append(decided, d) },
	})
	core.running = true // the handlers are called from here; no run loop
	if err := core.Submit("payload"); err != nil {
		t.Fatal(err)
	}
	digest := core.inst.digest
	vote := func(from string) {
		core.handle(network.Message{From: from, Payload: prepareMsg{Height: 1, Digest: digest}})
		core.handle(network.Message{From: from, Payload: commitMsg{Height: 1, Digest: digest}})
	}
	for _, outsider := range []string{"v0-gossip", "v2-gossip", "v3-gossip", "intruder"} {
		vote(outsider)
	}
	if core.inst.prepared || len(decided) != 0 {
		t.Fatalf("four non-members' votes prepared=%v the instance and decided %d payloads", core.inst.prepared, len(decided))
	}
	for _, outsider := range []string{"v0-gossip", "intruder"} {
		core.handle(network.Message{From: outsider, Payload: roundChangeMsg{Height: 1, NewRound: 1}})
	}
	if core.inst.round != 0 || core.inst.roundChange.Count() != 0 {
		t.Fatalf("non-members moved the core to round %d with %d round-change votes", core.inst.round, core.inst.roundChange.Count())
	}
	vote("v0")
	if len(decided) != 0 {
		t.Fatal("decided on two members' votes, one short of the quorum")
	}
	vote("v0") // a repeated vote is one vote
	vote("v2")
	if len(decided) != 1 || decided[0].Payload != "payload" {
		t.Fatalf("three members' votes decided %v, want the payload once", decided)
	}
}

// BenchmarkBFTCoreDecideN32 decides payloads one after another on a
// 32-validator cluster under virtual time: ~2 000 vote deliveries a decision,
// the n² plane's unit of work.
func BenchmarkBFTCoreDecideN32(b *testing.B) {
	const n = 32
	av := clock.NewAutoVirtual()
	h := clock.Register(av, "bench-driver")
	defer h.Close()
	tr := network.NewTransport(av, nil)
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("validator-%02d", i)
	}
	decided := 0 // the last validator's; written on the clock's event loop
	cores := make([]*Core, n)
	for i, id := range peers {
		cfg := Config{ID: id, Peers: peers, Transport: tr, Clock: av, Proposer: StickyPrimary}
		if i == n-1 {
			cfg.OnDecide = func(consensus.Decision) { decided++ }
		}
		cores[i] = New(cfg)
		if err := cores[i].Start(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cores[0].Submit(i); err != nil {
			b.Fatal(err)
		}
		for decided <= i {
			av.Sleep(time.Microsecond)
		}
	}
	b.StopTimer()
	for _, c := range cores {
		c.Stop()
	}
	tr.Stop()
}

// TestLoneNodeDeliversSubmitsInOrder: a lone validator decides inside
// Submit, so several Submits made at one instant decide one height after
// another, each delivered once, in height order, with its payload.
func TestLoneNodeDeliversSubmitsInOrder(t *testing.T) {
	c := newCluster(t, 1, RoundRobinByHeight)
	core := c.cores[0]
	at := c.clk.Now()
	for i := 1; i <= 5; i++ {
		if err := core.Submit(fmt.Sprintf("tx-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	got := c.decided[core.cfg.ID]
	if len(got) != 5 {
		t.Fatalf("delivered %d heights at the Submits' instant, want 5", len(got))
	}
	for i, d := range got {
		if d.Seq != uint64(i+1) || d.Payload != fmt.Sprintf("tx-%d", i+1) || !d.DecidedAt.Equal(at) {
			t.Fatalf("delivery %d = %+v, want height %d, tx-%d, decided at %v", i, d, i+1, i+1, at)
		}
	}
	if core.PendingCount() != 0 || core.Height() != 6 {
		t.Fatalf("pending %d at height %d, want none pending at 6", core.PendingCount(), core.Height())
	}
}
