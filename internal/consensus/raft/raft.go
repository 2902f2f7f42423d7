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
	"slices"
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

// Node is one Raft participant. Only the clock's event loop touches it —
// its own loop event, or a client calling Submit — so it takes no lock.
type Node struct {
	cfg   Config
	rng   *rand.Rand
	peers consensus.PeerIndex
	self  int // this node's index in cfg.Peers

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
	// electionDeadline is how long a follower waits to hear from a leader
	// before it stands, drawn afresh from rng at Start and per election.
	electionDeadline time.Duration
	running          bool

	loop *clock.Loop[network.Message]
}

// New creates a Raft node; call Start to join the cluster.
func New(cfg Config) *Node {
	cfg.fill()
	peers := consensus.NewPeerIndex(cfg.Peers)
	n := &Node{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ int64(len(cfg.ID))*7919)),
		peers:      peers,
		self:       peers.Of(cfg.ID),
		role:       Follower,
		log:        make([]entry, 1), // index 0 sentinel
		votes:      consensus.NewVoteSet(len(cfg.Peers)),
		nextIndex:  make([]int, len(cfg.Peers)),
		matchIndex: make([]int, len(cfg.Peers)),
	}
	n.loop = clock.NewLoop(cfg.Clock, "raft/"+cfg.ID, n.handle, n.tick)
	return n
}

// Start joins the cluster and launches the node's loop.
func (n *Node) Start() error {
	if n.running {
		return nil
	}
	n.running = true
	n.lastHeard = n.cfg.Clock.Now()
	n.cfg.Transport.Register(n.cfg.ID, n.loop.Post)
	n.electionDeadline = n.randomElectionTimeout()
	n.loop.Every(heartbeatInterval)
	return nil
}

// Stop terminates the node; its loop never runs again.
func (n *Node) Stop() {
	if !n.running {
		return
	}
	n.running = false
	n.loop.Stop()
	n.cfg.Transport.Unregister(n.cfg.ID)
}

// Submit hands a payload to the cluster for ordering. On the leader it
// appends to the log; on followers it forwards to the last known leader.
func (n *Node) Submit(payload any) error {
	if !n.running {
		return consensus.ErrNotRunning
	}
	if n.role == Leader {
		n.appendLocal(payload)
		return nil
	}
	if n.leaderID == "" {
		return consensus.ErrNotLeader
	}
	return n.cfg.Transport.Send(n.cfg.ID, n.leaderID, "raft.forward", forwardSubmit{Payload: payload})
}

// appendLocal appends payload to the leader's log and delivers whatever
// that commits.
func (n *Node) appendLocal(payload any) {
	n.log = append(n.log, entry{Term: n.term, Payload: payload})
	n.matchIndex[n.self] = len(n.log) - 1
	n.advanceCommit()
	n.applyCommitted()
}

// Leader returns the node's current view of the leader ("" if unknown).
func (n *Node) Leader() string { return n.leaderID }

// Role returns the node's current role.
func (n *Node) Role() Role { return n.role }

// Term returns the node's current term.
func (n *Node) Term() uint64 { return n.term }

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() int { return n.commitIndex }

// tick is the node's heartbeat: the leader replicates, and a follower idle
// past its election deadline stands.
func (n *Node) tick() {
	switch {
	case n.role == Leader:
		n.broadcastAppend()
	case n.cfg.Clock.Since(n.lastHeard) >= n.electionDeadline:
		n.startElection()
		n.electionDeadline = n.randomElectionTimeout()
	}
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
		if n.role == Leader {
			n.appendLocal(p.Payload)
		}
	}
}

func (n *Node) startElection() {
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
	if n.maybeWin() {
		return
	}
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			_ = n.cfg.Transport.Send(n.cfg.ID, p, "raft.requestVote", req)
		}
	}
}

func (n *Node) onRequestVote(from string, req requestVote) {
	if req.Term > n.term {
		n.becomeFollower(req.Term)
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
	_ = n.cfg.Transport.Send(n.cfg.ID, from, "raft.voteResponse", voteResponse{Term: n.term, Granted: grant})
}

func (n *Node) onVoteResponse(from string, resp voteResponse) {
	if resp.Term > n.term {
		n.becomeFollower(resp.Term)
		return
	}
	if n.role != Candidate || resp.Term != n.term || !resp.Granted {
		return
	}
	n.votes.Add(n.peers.Of(from)) // a non-member's grant is not counted
	n.maybeWin()
}

// maybeWin promotes a candidate holding a majority. It reports whether the
// node became leader.
func (n *Node) maybeWin() bool {
	if n.role != Candidate || n.votes.Count() < consensus.MajoritySize(len(n.cfg.Peers)) {
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
	n.broadcastAppend()
	return true
}

func (n *Node) becomeFollower(term uint64) {
	n.term = term
	n.role = Follower
	n.votedFor = ""
	n.votes.Clear()
}

func (n *Node) broadcastAppend() {
	if n.role != Leader {
		return
	}
	for i, p := range n.cfg.Peers {
		if i == n.self {
			continue
		}
		next := max(n.nextIndex[i], 1)
		prev := next - 1
		_ = n.cfg.Transport.Send(n.cfg.ID, p, "raft.appendEntries", appendEntries{
			Term:         n.term,
			Leader:       n.cfg.ID,
			PrevLogIndex: prev,
			PrevLogTerm:  n.log[prev].Term,
			Entries:      slices.Clone(n.log[next:]),
			LeaderCommit: n.commitIndex,
		})
	}
}

func (n *Node) onAppendEntries(from string, req appendEntries) {
	if req.Term < n.term {
		_ = n.cfg.Transport.Send(n.cfg.ID, from, "raft.appendResponse",
			appendResponse{Term: n.term, From: n.cfg.ID, Success: false})
		return
	}
	if req.Term > n.term || n.role != Follower {
		n.becomeFollower(req.Term)
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
	if resp.Term > n.term {
		n.becomeFollower(resp.Term)
		return
	}
	if n.role != Leader || resp.Term != n.term {
		return
	}
	if resp.Success {
		if resp.MatchIndex > n.matchIndex[peer] {
			n.matchIndex[peer] = resp.MatchIndex
		}
		n.nextIndex[peer] = n.matchIndex[peer] + 1
		n.advanceCommit()
	} else if n.nextIndex[peer] > 1 {
		n.nextIndex[peer]--
	}
	n.applyCommitted()
}

// advanceCommit moves commitIndex to the highest index replicated on a
// majority with an entry from the current term.
func (n *Node) advanceCommit() {
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

// applyCommitted delivers the committed entries not yet applied, in log
// order.
func (n *Node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		if cb := n.cfg.OnDecide; cb != nil {
			cb(consensus.Decision{Seq: uint64(n.lastApplied), Payload: n.log[n.lastApplied].Payload,
				Proposer: n.leaderID, DecidedAt: n.cfg.Clock.Now()})
		}
	}
}
