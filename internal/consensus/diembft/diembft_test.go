package diembft

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/network/networktest"
)

// payloadQueue is one leader's backlog in these tests. Its pop is the
// engine's PayloadSource, as the Diem driver's mempool take is in a run.
type payloadQueue struct {
	items []any
}

func (q *payloadQueue) push(p any) {
	q.items = append(q.items, p)
}

// pop returns the oldest payload, or nil for an empty block.
func (q *payloadQueue) pop() any {
	if len(q.items) == 0 {
		return nil
	}
	p := q.items[0]
	q.items = q.items[1:]
	return p
}

type cluster struct {
	t         *testing.T
	clk       *clock.AutoVirtual
	transport *network.Transport
	engines   []*Engine
	queues    []*payloadQueue // engines[i] proposes from queues[i]

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
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("diem-%d", i)
	}
	for _, id := range names {
		id := id
		q := &payloadQueue{}
		c.queues = append(c.queues, q)
		e := New(Config{
			Clock:         clk,
			ID:            id,
			Validators:    names,
			Transport:     c.transport,
			RoundInterval: 5 * time.Millisecond,
			PayloadSource: q.pop,
			OnDecide: func(d consensus.Decision) {
				c.decided[id] = append(c.decided[id], d)
			},
		})
		c.engines = append(c.engines, e)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, e := range c.engines {
			e.Stop()
		}
		c.transport.Stop()
	})
	return c
}

// submit queues payload for engines[i] to propose when it next leads a
// round.
func (c *cluster) submit(i int, payload any) { c.queues[i].push(payload) }

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

func TestCommitsSubmittedPayload(t *testing.T) {
	c := newCluster(t, 4)
	c.submit(0, "tx-block-1")
	ds := c.waitDecisions("diem-0", 1, 5*time.Second)
	if ds[0].Payload != "tx-block-1" {
		t.Fatalf("payload = %v", ds[0].Payload)
	}
}

func TestAllValidatorsCommitSameOrder(t *testing.T) {
	c := newCluster(t, 4)
	const total = 10
	for i := 0; i < total; i++ {
		// Spread submissions across validators; each leader drains its own
		// queue when its round arrives.
		c.submit(i%4, fmt.Sprintf("p-%d", i))
	}
	var ref []consensus.Decision
	for i, e := range c.engines {
		_ = e
		id := fmt.Sprintf("diem-%d", i)
		ds := c.waitDecisions(id, total, 10*time.Second)[:total]
		if i == 0 {
			ref = ds
			continue
		}
		for j := range ds {
			if ds[j].Payload != ref[j].Payload {
				t.Fatalf("%s slot %d: %v != %v (agreement violation)",
					id, j, ds[j].Payload, ref[j].Payload)
			}
		}
	}
}

func TestSeqIsGapFree(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 5; i++ {
		c.submit(0, i)
	}
	ds := c.waitDecisions("diem-0", 5, 5*time.Second)
	for i, d := range ds[:5] {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
	}
}

func TestRoundsAdvanceWithoutPayloads(t *testing.T) {
	c := newCluster(t, 4)
	// Even with nothing submitted the pacemaker must advance rounds via
	// empty blocks.
	start := c.engines[0].Round()
	c.clk.Sleep(200 * time.Millisecond)
	if got := c.engines[0].Round(); got <= start {
		t.Fatalf("round did not advance: %d -> %d", start, got)
	}
	if len(c.decided["diem-0"]) != 0 {
		t.Fatal("empty blocks must not be delivered as decisions")
	}
}

func TestSurvivesLeaderIsolation(t *testing.T) {
	c := newCluster(t, 4)
	// Cut one validator off; the pacemaker must skip its rounds and the
	// cluster still commits with 3 of 4 (quorum 3).
	networktest.Disconnect(c.transport, "diem-1")
	for i := 0; i < 3; i++ {
		c.submit(0, fmt.Sprintf("x-%d", i))
	}
	c.waitDecisions("diem-0", 3, 10*time.Second)
}

// TestPacemakerTimesOutAfterTimeoutRounds: a validator that hears nothing
// votes to time its round out once timeoutRounds round intervals have
// passed without progress, and not before.
func TestPacemakerTimesOutAfterTimeoutRounds(t *testing.T) {
	const interval = 5 * time.Millisecond
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	// Round 1's leader is g1, which never runs: solo only ever waits.
	e := New(Config{Clock: clk, ID: "solo", Validators: []string{"solo", "g1", "g2", "g3"}, Transport: tr, RoundInterval: interval})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	timedOut := func() bool { return e.timeouts[1] != nil }
	clk.Sleep(timeoutRounds*interval + interval/2)
	if timedOut() {
		t.Fatalf("round 1 timed out within %d round intervals", timeoutRounds)
	}
	clk.Sleep(interval)
	if !timedOut() {
		t.Fatalf("round 1 did not time out on the first tick past %d round intervals", timeoutRounds)
	}
	if r := e.Round(); r != 1 {
		t.Fatalf("round %d: one timeout vote of four must not advance it", r)
	}
}

// TestOnlyAValidatorsOwnVoteCounts drives the round-1 leader's handlers by
// hand. A vote counts when its sender is a validator and names itself as the
// voter; votes from an outsider, votes an outsider casts in a validator's
// name, and votes one validator relays for another must not form the QC that
// three validators' own votes then do.
func TestOnlyAValidatorsOwnVoteCounts(t *testing.T) {
	clk := clock.NewAutoVirtual()
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	e := New(Config{ID: "v1", Validators: []string{"v0", "v1", "v2", "v3"}, Transport: tr, Clock: clk})
	e.running = true // the handlers are called from here; no run loop
	e.tryPropose()   // v1 leads round 1 and votes for its own block
	var blockID crypto.Hash
	for id, b := range e.blocks {
		if b.Round == 1 {
			blockID = id
		}
	}
	vote := func(from, voter string) {
		e.handle(network.Message{From: from, Payload: voteMsg{BlockID: blockID, Round: 1, Voter: voter}})
	}
	vote("intruder", "intruder")
	vote("v0-gossip", "v0-gossip")
	vote("intruder", "v0") // forged
	vote("intruder", "v2")
	vote("v0", "v2") // relayed
	vote("v0", "v3")
	if e.highQC.Round != 0 {
		t.Fatalf("a QC formed for round %d on the leader's own vote and six that must not count", e.highQC.Round)
	}
	for _, outsider := range []string{"intruder", "v0-gossip", "v2-gossip"} {
		e.handle(network.Message{From: outsider, Payload: timeoutMsg{Round: 1}})
	}
	if e.round != 1 {
		t.Fatalf("non-members' timeouts advanced the round to %d", e.round)
	}
	vote("v0", "v0")
	vote("v0", "v0") // a repeated vote is one vote
	if e.highQC.Round != 0 {
		t.Fatal("a QC formed on two validators' votes, one short of the quorum")
	}
	vote("v2", "v2")
	if e.highQC.Round != 1 || e.highQC.BlockID != blockID {
		t.Fatalf("highQC = %+v, want the round-1 block certified by v1, v0 and v2", e.highQC)
	}
}

// TestValidatorsShareTheProposersBlock: a proposal carries the proposer's
// block node, and every validator stores that node rather than a copy, so
// after a decided round each one's blocks[id] is the proposer's pointer.
func TestValidatorsShareTheProposersBlock(t *testing.T) {
	clk := clock.NewAutoVirtual()
	h := clock.Register(clk, "test")
	defer h.Close()
	tr := network.NewTransport(clk, nil)
	names := []string{"v0", "v1", "v2", "v3"}
	var decided []consensus.Decision // v0's; written on the clock's event loop
	var engines []*Engine
	for _, id := range names {
		q := &payloadQueue{}
		q.push("shared") // whichever leads next proposes it
		cfg := Config{ID: id, Validators: names, Transport: tr, Clock: clk, RoundInterval: 5 * time.Millisecond, PayloadSource: q.pop}
		if id == "v0" {
			cfg.OnDecide = func(d consensus.Decision) { decided = append(decided, d) }
		}
		e := New(cfg)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	defer func() {
		for _, e := range engines {
			e.Stop()
		}
		tr.Stop()
	}()
	for deadline := clk.Now().Add(5 * time.Second); len(decided) == 0; clk.Sleep(5 * time.Millisecond) {
		if clk.Now().After(deadline) {
			t.Fatal("no round decided")
		}
	}
	d := decided[0]
	proposer := engines[engines[0].validators.Of(d.Proposer)]
	var block *blockNode
	for _, b := range proposer.blocks {
		if b.Payload == d.Payload && b.Proposer == d.Proposer {
			block = b
		}
	}
	if block == nil {
		t.Fatalf("proposer %s holds no block carrying the decided payload", d.Proposer)
	}
	for _, e := range engines {
		if got := e.blocks[block.ID]; got != block {
			t.Fatalf("%s stores %p for the decided block, the proposer %p", e.cfg.ID, got, block)
		}
	}
}

// TestLeaderProposesOncePerRound: a leader asked to propose twice in one
// round sends one proposal, and it proposes again in the next round it
// leads.
func TestLeaderProposesOncePerRound(t *testing.T) {
	clk := clock.NewAutoVirtual()
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	names := []string{"v0", "v1", "v2", "v3"}
	for _, id := range names {
		if id != "v1" {
			tr.Register(id, func(network.Message) {})
		}
	}
	e := New(Config{ID: "v1", Validators: names, Transport: tr, Clock: clk})
	e.running = true // tryPropose is called from here; no run loop
	proposals := func() (own int, sent uint64) {
		for _, b := range e.blocks {
			if b.Proposer == "v1" {
				own++
			}
		}
		sent, _, _ = tr.Stats()
		return own, sent
	}

	e.tryPropose() // v1 leads round 1
	e.tryPropose()
	if own, sent := proposals(); own != 1 || sent != 3 {
		t.Fatalf("round 1 asked twice: %d own blocks, %d messages sent; want 1 block sent to 3 validators", own, sent)
	}
	e.round = 5 // v1 leads round 5 next
	e.tryPropose()
	if own, sent := proposals(); own != 2 || sent != 6 {
		t.Fatalf("round 5: %d own blocks, %d messages sent; want a second block sent to 3 validators", own, sent)
	}
}

// TestNilPayloadProposesEmptyBlock: a leader whose PayloadSource returns nil
// still proposes, once per round, an empty block; the source is asked once
// per proposal, and its next payload goes into the next round the node
// leads.
func TestNilPayloadProposesEmptyBlock(t *testing.T) {
	clk := clock.NewAutoVirtual()
	tr := network.NewTransport(clk, nil)
	defer tr.Stop()
	names := []string{"v0", "v1", "v2", "v3"}
	for _, id := range names {
		if id != "v1" {
			tr.Register(id, func(network.Message) {})
		}
	}
	q := &payloadQueue{}
	asked := 0
	e := New(Config{ID: "v1", Validators: names, Transport: tr, Clock: clk,
		PayloadSource: func() any { asked++; return q.pop() }})
	e.running = true // tryPropose is called from here; no run loop
	proposed := func(round uint64) *blockNode {
		for _, b := range e.blocks {
			if b.Proposer == "v1" && b.Round == round {
				return b
			}
		}
		return nil
	}

	e.tryPropose() // v1 leads round 1; its queue is empty
	e.tryPropose()
	b := proposed(1)
	if b == nil || b.Payload != nil || asked != 1 {
		t.Fatalf("round 1: block %+v after %d PayloadSource calls; want one empty block from one call", b, asked)
	}
	if sent, _, _ := tr.Stats(); sent != 3 {
		t.Fatalf("the empty block went to %d validators, want 3", sent)
	}
	q.push("next")
	e.round = 5 // v1 leads round 5 next
	e.tryPropose()
	if b := proposed(5); b == nil || b.Payload != "next" || asked != 2 {
		t.Fatalf("round 5: block %+v after %d calls; want the queued payload from a second call", b, asked)
	}
}
