package diembft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/network"
)

type cluster struct {
	t         *testing.T
	transport *network.Transport
	engines   []*Engine

	mu      sync.Mutex
	decided map[string][]consensus.Decision
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{
		t:         t,
		transport: network.NewTransport(clock.New(), nil),
		decided:   make(map[string][]consensus.Decision),
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("diem-%d", i)
	}
	for _, id := range names {
		id := id
		e := New(Config{
			Clock:         clock.New(),
			ID:            id,
			Validators:    names,
			Transport:     c.transport,
			RoundInterval: 5 * time.Millisecond,
			OnDecide: func(d consensus.Decision) {
				c.mu.Lock()
				c.decided[id] = append(c.decided[id], d)
				c.mu.Unlock()
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

func (c *cluster) waitDecisions(id string, want int, timeout time.Duration) []consensus.Decision {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.decided[id])
		c.mu.Unlock()
		if n >= want {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]consensus.Decision, len(c.decided[id]))
			copy(out, c.decided[id])
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	n := len(c.decided[id])
	c.mu.Unlock()
	c.t.Fatalf("%s decided %d, want %d", id, n, want)
	return nil
}

func TestCommitsSubmittedPayload(t *testing.T) {
	c := newCluster(t, 4)
	if err := c.engines[0].Submit("tx-block-1"); err != nil {
		t.Fatal(err)
	}
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
		// pending queue when its round arrives.
		if err := c.engines[i%4].Submit(fmt.Sprintf("p-%d", i)); err != nil {
			t.Fatal(err)
		}
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
		if err := c.engines[0].Submit(i); err != nil {
			t.Fatal(err)
		}
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
	time.Sleep(200 * time.Millisecond)
	if got := c.engines[0].Round(); got <= start {
		t.Fatalf("round did not advance: %d -> %d", start, got)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.decided["diem-0"]) != 0 {
		t.Fatal("empty blocks must not be delivered as decisions")
	}
}

func TestSubmitNotRunning(t *testing.T) {
	tr := network.NewTransport(clock.New(), nil)
	defer tr.Stop()
	e := New(Config{Clock: clock.New(), ID: "x", Validators: []string{"x"}, Transport: tr})
	if err := e.Submit("v"); err != consensus.ErrNotRunning {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

func TestSurvivesLeaderIsolation(t *testing.T) {
	c := newCluster(t, 4)
	// Isolate one validator; the pacemaker must skip its rounds and the
	// cluster still commits with 3 of 4 (quorum 3).
	c.transport.Isolate("diem-1")
	for i := 0; i < 3; i++ {
		if err := c.engines[0].Submit(fmt.Sprintf("x-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.waitDecisions("diem-0", 3, 10*time.Second)
}

func TestPendingCount(t *testing.T) {
	tr := network.NewTransport(clock.New(), nil)
	defer tr.Stop()
	e := New(Config{Clock: clock.New(), ID: "solo", Validators: []string{"solo", "g1", "g2", "g3"}, Transport: tr})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	_ = e.Submit(1)
	_ = e.Submit(2)
	if n := e.PendingCount(); n < 1 {
		t.Fatalf("pending = %d, want >= 1", n)
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
		e.handle(network.Message{From: from, To: "v1", Payload: voteMsg{BlockID: blockID, Round: 1, Voter: voter}})
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
		e.handle(network.Message{From: outsider, To: "v1", Payload: timeoutMsg{Round: 1}})
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
	var decided []consensus.Decision // v0's; written under the execution token
	var engines []*Engine
	for _, id := range names {
		cfg := Config{ID: id, Validators: names, Transport: tr, Clock: clk, RoundInterval: 5 * time.Millisecond}
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
	for _, e := range engines { // whichever leads next proposes it
		if err := e.Submit("shared"); err != nil {
			t.Fatal(err)
		}
	}
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
