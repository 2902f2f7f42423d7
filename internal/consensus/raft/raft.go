// Package raft implements the Raft log-replication protocol (Ongaro &
// Ousterhout 2014) used by Hyperledger Fabric's ordering service. It
// provides leader election with randomized timeouts, AppendEntries
// replication, and majority-commit, delivering decided payloads in log
// order on every node.
//
// The implementation is in-memory (no persistence or snapshotting): the
// paper's Fabric deployments never restart orderers mid-benchmark, so the
// durable-state machinery contributes nothing to the measured behaviour.
package raft

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/network"
)

// Role is a node's current Raft role.
type Role int

// Raft roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Config parameterizes a Raft node.
type Config struct {
	// ID is this node's transport endpoint name.
	ID string
	// Peers lists every cluster member, including this node.
	Peers []string
	// Transport carries protocol messages.
	Transport *network.Transport
	// Clock drives timeouts. Required.
	Clock *clock.AutoVirtual
	// OnDecide receives committed payloads in log order.
	OnDecide consensus.DecideFunc
	// Seed randomizes election timeouts deterministically.
	Seed int64
}

func (c *Config) fill() {
	if c.Clock == nil {
		panic("raft: Config.Clock is nil")
	}
}

const (
	// heartbeatInterval is the leader's AppendEntries cadence.
	heartbeatInterval = 15 * time.Millisecond
	// electionTimeout is the base follower timeout; each node randomizes
	// within [electionTimeout, 2*electionTimeout).
	electionTimeout = 100 * time.Millisecond
)

type entry struct {
	Term    uint64
	Payload any
}

// Wire messages.
type (
	requestVote struct {
		Term         uint64
		Candidate    string
		LastLogIndex int
		LastLogTerm  uint64
	}
	voteResponse struct {
		Term    uint64
		Granted bool
	}
	appendEntries struct {
		Term         uint64
		Leader       string
		PrevLogIndex int
		PrevLogTerm  uint64
		Entries      []entry
		LeaderCommit int
	}
	appendResponse struct {
		Term       uint64
		From       string
		Success    bool
		MatchIndex int
	}
	forwardSubmit struct {
		Payload any
	}
)

// Node is one Raft participant.
type Node struct {
	cfg   Config
	rng   *rand.Rand
	peers consensus.PeerIndex
	self  int // this node's index in cfg.Peers

	mu          sync.Mutex
	role        Role
	term        uint64
	votedFor    string
	leaderID    string
	log         []entry // log[0] is a sentinel
	commitIndex int
	lastApplied int
	votes       consensus.VoteSet // by peer index, like the two below
	nextIndex   []int
	matchIndex  []int
	lastHeard   time.Time
	running     bool

	applyMu sync.Mutex // serializes OnDecide callbacks in log order

	events *clock.Mailbox[network.Message]
	stop   *clock.Gate
	join   func() // waits for the loop Start began
}

// New creates a Raft node; call Start to join the cluster.
func New(cfg Config) *Node {
	cfg.fill()
	peers := consensus.NewPeerIndex(cfg.Peers)
	return &Node{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ int64(len(cfg.ID))*7919)),
		peers:      peers,
		self:       peers.Of(cfg.ID),
		role:       Follower,
		log:        make([]entry, 1), // index 0 sentinel
		votes:      consensus.NewVoteSet(len(cfg.Peers)),
		nextIndex:  make([]int, len(cfg.Peers)),
		matchIndex: make([]int, len(cfg.Peers)),
		events:     clock.NewMailbox[network.Message](cfg.Clock, 8192),
		stop:       clock.NewGate(cfg.Clock),
	}
}

// Start joins the cluster and launches the node's loop.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return nil
	}
	n.running = true
	n.lastHeard = n.cfg.Clock.Now()
	n.mu.Unlock()

	n.cfg.Transport.Register(n.cfg.ID, func(m network.Message) {
		n.events.Send(m, n.stop)
	})
	n.join = clock.Go(n.cfg.Clock, []string{"raft/" + n.cfg.ID}, func(int) { n.run() })
	return nil
}

// Stop terminates the node and waits for its loop to exit.
func (n *Node) Stop() {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	n.mu.Unlock()
	n.stop.Close()
	n.join()
	n.cfg.Transport.Unregister(n.cfg.ID)
}

// Submit hands a payload to the cluster for ordering. On the leader it
// appends to the log; on followers it forwards to the last known leader.
func (n *Node) Submit(payload any) error {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return consensus.ErrNotRunning
	}
	if n.role == Leader {
		n.log = append(n.log, entry{Term: n.term, Payload: payload})
		n.matchIndex[n.self] = len(n.log) - 1
		n.advanceCommitLocked()
		n.mu.Unlock()
		n.applyCommitted()
		return nil
	}
	leader := n.leaderID
	n.mu.Unlock()
	if leader == "" {
		return consensus.ErrNotLeader
	}
	return n.cfg.Transport.Send(n.cfg.ID, leader, "raft.forward", forwardSubmit{Payload: payload})
}

// Leader returns the node's current view of the leader ("" if unknown).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// run is the node's loop: messages, and a heartbeat tick on which the
// leader replicates and a follower idle past its election deadline stands.
func (n *Node) run() {
	electionDeadline := n.randomElectionTimeout()
	clock.Serve(n.cfg.Clock, n.stop, n.events, heartbeatInterval, n.handle, func() {
		n.mu.Lock()
		role := n.role
		idle := n.cfg.Clock.Since(n.lastHeard)
		n.mu.Unlock()
		switch {
		case role == Leader:
			n.broadcastAppend()
		case idle >= electionDeadline:
			n.startElection()
			electionDeadline = n.randomElectionTimeout()
		}
	})
}

func (n *Node) randomElectionTimeout() time.Duration {
	return electionTimeout + time.Duration(n.rng.Int63n(int64(electionTimeout)))
}

func (n *Node) handle(m network.Message) {
	switch p := m.Payload.(type) {
	case requestVote:
		n.onRequestVote(m.From, p)
	case voteResponse:
		n.onVoteResponse(m.From, p)
	case appendEntries:
		n.onAppendEntries(m.From, p)
	case appendResponse:
		n.onAppendResponse(m.From, p)
	case forwardSubmit:
		n.mu.Lock()
		if n.role == Leader {
			n.log = append(n.log, entry{Term: n.term, Payload: p.Payload})
			n.matchIndex[n.self] = len(n.log) - 1
			n.advanceCommitLocked()
		}
		n.mu.Unlock()
		n.applyCommitted()
	}
}

func (n *Node) startElection() {
	n.mu.Lock()
	n.role = Candidate
	n.term++
	n.votedFor = n.cfg.ID
	n.votes.Clear()
	n.votes.Add(n.self)
	n.lastHeard = n.cfg.Clock.Now()
	req := requestVote{
		Term:         n.term,
		Candidate:    n.cfg.ID,
		LastLogIndex: len(n.log) - 1,
		LastLogTerm:  n.log[len(n.log)-1].Term,
	}
	peers := n.otherPeers()
	n.mu.Unlock()

	if n.maybeWinLocked() {
		return
	}
	for _, p := range peers {
		_ = n.cfg.Transport.Send(n.cfg.ID, p, "raft.requestVote", req)
	}
}

func (n *Node) onRequestVote(from string, req requestVote) {
	n.mu.Lock()
	if req.Term > n.term {
		n.becomeFollowerLocked(req.Term)
	}
	grant := false
	if req.Term == n.term && (n.votedFor == "" || n.votedFor == req.Candidate) {
		lastIdx := len(n.log) - 1
		lastTerm := n.log[lastIdx].Term
		upToDate := req.LastLogTerm > lastTerm ||
			(req.LastLogTerm == lastTerm && req.LastLogIndex >= lastIdx)
		if upToDate {
			grant = true
			n.votedFor = req.Candidate
			n.lastHeard = n.cfg.Clock.Now()
		}
	}
	term := n.term
	n.mu.Unlock()
	_ = n.cfg.Transport.Send(n.cfg.ID, from, "raft.voteResponse", voteResponse{Term: term, Granted: grant})
}

func (n *Node) onVoteResponse(from string, resp voteResponse) {
	n.mu.Lock()
	if resp.Term > n.term {
		n.becomeFollowerLocked(resp.Term)
		n.mu.Unlock()
		return
	}
	if n.role != Candidate || resp.Term != n.term || !resp.Granted {
		n.mu.Unlock()
		return
	}
	n.votes.Add(n.peers.Of(from)) // a non-member's grant is not counted
	n.mu.Unlock()
	n.maybeWinLocked()
}

// maybeWinLocked promotes a candidate holding a majority. It reports whether
// the node became leader.
func (n *Node) maybeWinLocked() bool {
	n.mu.Lock()
	if n.role != Candidate || n.votes.Count() < consensus.MajoritySize(len(n.cfg.Peers)) {
		n.mu.Unlock()
		return false
	}
	n.role = Leader
	n.leaderID = n.cfg.ID
	last := len(n.log) - 1
	for i := range n.cfg.Peers {
		n.nextIndex[i] = last + 1
		n.matchIndex[i] = 0
	}
	n.matchIndex[n.self] = last
	n.mu.Unlock()
	n.broadcastAppend()
	return true
}

func (n *Node) becomeFollowerLocked(term uint64) {
	n.term = term
	n.role = Follower
	n.votedFor = ""
	n.votes.Clear()
}

func (n *Node) broadcastAppend() {
	n.mu.Lock()
	if n.role != Leader {
		n.mu.Unlock()
		return
	}
	type outMsg struct {
		to  string
		req appendEntries
	}
	outs := make([]outMsg, 0, len(n.cfg.Peers)-1)
	for i, p := range n.cfg.Peers {
		if i == n.self {
			continue
		}
		next := n.nextIndex[i]
		if next < 1 {
			next = 1
		}
		prev := next - 1
		entries := make([]entry, len(n.log)-next)
		copy(entries, n.log[next:])
		outs = append(outs, outMsg{
			to: p,
			req: appendEntries{
				Term:         n.term,
				Leader:       n.cfg.ID,
				PrevLogIndex: prev,
				PrevLogTerm:  n.log[prev].Term,
				Entries:      entries,
				LeaderCommit: n.commitIndex,
			},
		})
	}
	n.mu.Unlock()
	for _, o := range outs {
		_ = n.cfg.Transport.Send(n.cfg.ID, o.to, "raft.appendEntries", o.req)
	}
}

func (n *Node) onAppendEntries(from string, req appendEntries) {
	n.mu.Lock()
	if req.Term < n.term {
		term := n.term
		n.mu.Unlock()
		_ = n.cfg.Transport.Send(n.cfg.ID, from, "raft.appendResponse",
			appendResponse{Term: term, From: n.cfg.ID, Success: false})
		return
	}
	if req.Term > n.term || n.role != Follower {
		n.becomeFollowerLocked(req.Term)
	}
	n.leaderID = req.Leader
	n.lastHeard = n.cfg.Clock.Now()

	ok := req.PrevLogIndex < len(n.log) && n.log[req.PrevLogIndex].Term == req.PrevLogTerm
	if ok {
		// Truncate conflicts and append.
		idx := req.PrevLogIndex + 1
		for i, e := range req.Entries {
			if idx+i < len(n.log) {
				if n.log[idx+i].Term != e.Term {
					n.log = n.log[:idx+i]
					n.log = append(n.log, req.Entries[i:]...)
					break
				}
				continue
			}
			n.log = append(n.log, req.Entries[i:]...)
			break
		}
		if req.LeaderCommit > n.commitIndex {
			n.commitIndex = min(req.LeaderCommit, len(n.log)-1)
		}
	}
	resp := appendResponse{
		Term:       n.term,
		From:       n.cfg.ID,
		Success:    ok,
		MatchIndex: req.PrevLogIndex + len(req.Entries),
	}
	n.mu.Unlock()

	n.applyCommitted()
	_ = n.cfg.Transport.Send(n.cfg.ID, from, "raft.appendResponse", resp)
}

// onAppendResponse moves the sender's replication cursors; a response that
// names another node than its sender, or a non-member, is ignored.
func (n *Node) onAppendResponse(from string, resp appendResponse) {
	peer := n.peers.Of(from)
	if resp.From != from || peer < 0 {
		return
	}
	n.mu.Lock()
	if resp.Term > n.term {
		n.becomeFollowerLocked(resp.Term)
		n.mu.Unlock()
		return
	}
	if n.role != Leader || resp.Term != n.term {
		n.mu.Unlock()
		return
	}
	if resp.Success {
		if resp.MatchIndex > n.matchIndex[peer] {
			n.matchIndex[peer] = resp.MatchIndex
		}
		n.nextIndex[peer] = n.matchIndex[peer] + 1
		n.advanceCommitLocked()
	} else {
		if n.nextIndex[peer] > 1 {
			n.nextIndex[peer]--
		}
	}
	n.mu.Unlock()
	n.applyCommitted()
}

// advanceCommitLocked moves commitIndex to the highest index replicated on a
// majority with an entry from the current term. Callers hold n.mu.
func (n *Node) advanceCommitLocked() {
	for idx := len(n.log) - 1; idx > n.commitIndex; idx-- {
		if n.log[idx].Term != n.term {
			break
		}
		count := 0
		for _, m := range n.matchIndex {
			if m >= idx {
				count++
			}
		}
		if count >= consensus.MajoritySize(len(n.cfg.Peers)) {
			n.commitIndex = idx
			break
		}
	}
}

func (n *Node) applyCommitted() {
	// applyMu guarantees that concurrent callers deliver decisions in
	// strictly increasing log order, one at a time.
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	for {
		n.mu.Lock()
		if n.lastApplied >= n.commitIndex {
			n.mu.Unlock()
			return
		}
		n.lastApplied++
		seq := uint64(n.lastApplied)
		e := n.log[n.lastApplied]
		leader := n.leaderID
		cb := n.cfg.OnDecide
		now := n.cfg.Clock.Now()
		n.mu.Unlock()
		if cb != nil {
			cb(consensus.Decision{Seq: seq, Payload: e.Payload, Proposer: leader, DecidedAt: now})
		}
	}
}

func (n *Node) otherPeers() []string {
	out := make([]string, 0, len(n.cfg.Peers)-1)
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			out = append(out, p)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
