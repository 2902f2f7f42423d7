// Package consensus defines the contract shared by the six ordering engines
// used by the simulated systems (Raft for Fabric, IBFT for Quorum, PBFT for
// Sawtooth, DiemBFT for Diem, DPoS for BitShares, and the Corda notary).
//
// Engines totally order opaque payloads (blocks, in practice): a payload is
// submitted on any node and eventually every correct node observes the same
// sequence of Decisions.
package consensus

import (
	"errors"
	"time"
)

// Decision is one slot of the total order produced by an engine.
type Decision struct {
	// Seq is the decision sequence number, starting at 1.
	Seq uint64
	// Payload is the ordered value, typically a *chain.Block.
	Payload any
	// Proposer names the node whose proposal won the slot.
	Proposer string
	// DecidedAt is the local decision time on the observing node.
	DecidedAt time.Time
}

// DecideFunc is invoked on each node, in sequence order, once a slot is
// decided. It runs inside the engine's clock event, to completion: it must
// not park (a commit gate's durability wait is a deadline, not a sleep).
type DecideFunc func(Decision)

// Engine lifecycle errors.
var (
	ErrNotRunning = errors.New("consensus: engine not running")
	ErrNotLeader  = errors.New("consensus: not the leader")
)

// QuorumSize returns the vote threshold for a BFT protocol tolerating f
// faults among n = 3f+1 nodes: 2f+1, computed as ceil((2n+1)/3).
func QuorumSize(n int) int { return (2*n + 2) / 3 }

// MajoritySize returns the crash-fault majority threshold for n nodes.
func MajoritySize(n int) int { return n/2 + 1 }

// FaultTolerance returns f, the number of byzantine faults n nodes tolerate.
func FaultTolerance(n int) int { return (n - 1) / 3 }
