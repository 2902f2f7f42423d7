package consensus_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
	"github.com/coconut-bench/coconut/internal/consensus/bftcore"
	"github.com/coconut-bench/coconut/internal/consensus/raft"
	"github.com/coconut-bench/coconut/internal/network"
)

// TestEnginesDecideInAgreement: a 4-validator bftcore cluster and a 3-node
// Raft cluster, both clock events on one clock, each decide 50 blocks in
// agreement while the test sleeps them along.
func TestEnginesDecideInAgreement(t *testing.T) {
	const blocks = 50
	clk := clocktest.New(t)
	tr := network.NewTransport(clk, network.NewNormalLatency(2*time.Millisecond, 500*time.Microsecond, 5))
	defer tr.Stop()
	rec := newRecorder()

	validators := []string{"v0", "v1", "v2", "v3"}
	var cores []*bftcore.Core
	for _, id := range validators {
		c := bftcore.New(bftcore.Config{Clock: clk, ID: id, Peers: validators, Transport: tr,
			OnDecide: rec.fn(id), Proposer: bftcore.RoundRobinByHeight})
		cores = append(cores, c)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}
	orderers := []string{"r0", "r1", "r2"}
	var nodes []*raft.Node
	for i, id := range orderers {
		n := raft.New(raft.Config{Clock: clk, ID: id, Peers: orderers, Transport: tr,
			OnDecide: rec.fn(id), Seed: int64(i + 1)})
		nodes = append(nodes, n)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, c := range cores {
			c.Stop()
		}
		for _, n := range nodes {
			n.Stop()
		}
	}()

	for b := 1; b <= blocks; b++ {
		for _, c := range cores {
			if c.IsProposer() {
				if err := c.Submit(fmt.Sprintf("block-%d", b)); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		clocktest.Until(t, clk, time.Minute, fmt.Sprintf("bftcore decides block %d", b), func() bool {
			for _, id := range validators {
				if rec.count(id) < b {
					return false
				}
			}
			return true
		})
	}
	var leader *raft.Node
	clocktest.Until(t, clk, time.Minute, "a Raft leader elected", func() bool {
		for _, n := range nodes {
			if n.Role() == raft.Leader {
				leader = n
			}
		}
		return leader != nil
	})
	for e := 1; e <= blocks; e++ {
		if err := leader.Submit(fmt.Sprintf("entry-%d", e)); err != nil {
			t.Fatal(err)
		}
		clocktest.Until(t, clk, time.Minute, fmt.Sprintf("raft commits entry %d", e), func() bool {
			for _, id := range orderers {
				if rec.count(id) < e {
					return false
				}
			}
			return true
		})
	}
	rec.checkAgreement(t, validators, blocks)
	rec.checkAgreement(t, orderers, blocks)
}
