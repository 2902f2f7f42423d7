// Package systems defines the contract between the COCONUT benchmarking
// framework and the seven simulated blockchain systems, plus the shared
// commit-tracking hub that implements the paper's end-to-end semantics: "a
// transaction is not considered complete until the transaction has been
// persisted in all participating blockchain nodes" (§4.5).
package systems

import (
	"errors"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/wal"
)

// ErrNodeDown is returned by Submit when the entry node is crashed and by
// the crash hooks on invalid node indices.
var ErrNodeDown = errors.New("systems: node is down")

// Canonical abort-reason codes carried in Event.Code when a transaction
// commits invalid (or, for systems that shed conflicting work without a
// client event, in Driver.ConflictCounts). The contention workload plane
// aggregates goodput and a per-reason conflict breakdown from them.
const (
	// AbortMVCCConflict is Fabric's MVCC_READ_CONFLICT: a read version went
	// stale between endorsement and commit.
	AbortMVCCConflict = "mvcc-conflict"
	// AbortInsufficientFunds is a balance failure in the BankingApp /
	// SmallBank execution (order-execute systems include the failed tx).
	AbortInsufficientFunds = "insufficient-funds"
	// AbortAccountExists is a duplicate CreateAccount.
	AbortAccountExists = "account-exists"
	// AbortAccountNotFound is a read/transfer against a missing account.
	AbortAccountNotFound = "account-not-found"
	// AbortKeyNotFound is a KeyValue Get against a missing key.
	AbortKeyNotFound = "key-not-found"
	// AbortConflictExcluded is BitShares' interacting-operation exclusion:
	// the transaction touched keys already touched in the window and was
	// dropped from the forming block.
	AbortConflictExcluded = "conflict-excluded"
	// AbortBatchDiscarded is Sawtooth's atomic batch failure: one member
	// failed, the whole batch was discarded.
	AbortBatchDiscarded = "batch-discarded"
	// AbortDoubleSpend is a Corda notary rejection of an already-consumed
	// input state.
	AbortDoubleSpend = "double-spend"
	// AbortFlowFailed is a Corda flow failure other than a notary conflict.
	AbortFlowFailed = "flow-failed"
	// AbortExecFailed is any other execution failure.
	AbortExecFailed = "exec-failed"
)

// ClassifyAbort maps an execution/validation error onto a canonical abort
// code, so all seven drivers report comparable conflict breakdowns. A nil
// error returns "".
func ClassifyAbort(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, statestore.ErrMVCCConflict):
		return AbortMVCCConflict
	case errors.Is(err, iel.ErrInsufficientFunds):
		return AbortInsufficientFunds
	case errors.Is(err, iel.ErrAccountExists):
		return AbortAccountExists
	case errors.Is(err, iel.ErrAccountNotFound):
		return AbortAccountNotFound
	case errors.Is(err, iel.ErrKeyNotFound):
		return AbortKeyNotFound
	default:
		var ds *chain.DoubleSpendError
		if errors.As(err, &ds) {
			return AbortDoubleSpend
		}
		return AbortExecFailed
	}
}

// Event is the finalization notification delivered to a COCONUT client once
// a transaction has been persisted on every node.
type Event struct {
	// TxID identifies the finalized transaction.
	TxID crypto.Hash
	// Num is the transaction's number in its repetition (Transaction.Num),
	// which the hub and the client index by. Drivers copy it from the
	// transaction; an event without one takes the hub's unnumbered path.
	Num uint64
	// Client is the submitting client's endpoint name.
	Client string
	// Committed reports whether the transaction was appended/persisted.
	// Fabric appends MVCC-failed transactions with Committed=true and
	// ValidOK=false, matching the paper's counting rules (§5.4).
	Committed bool
	// ValidOK reports whether execution/validation succeeded.
	ValidOK bool
	// Code is the canonical abort-reason code (see ClassifyAbort) when
	// ValidOK is false; clients aggregate it into the per-reason conflict
	// breakdown and the goodput-vs-raw-throughput split.
	Code string
	// OpCount is the number of operations the transaction carried; the
	// paper counts each BitShares operation as one transaction (§4.5).
	OpCount int
	// BlockNum is the containing block height (0 for blockless Corda).
	BlockNum uint64
	// FinalizedAt is when the last node persisted the transaction.
	FinalizedAt time.Time
	// Stages points at the transaction's pipeline stage trace, which every
	// node's report of the transaction shares. Clients resolve it into
	// per-stage latency histograms; nil when the driver did not instrument
	// the transaction.
	Stages *chain.StageTrace
}

// EventFunc receives finalization events. Callbacks run on the system's
// clock events, on the clock's event loop, and must not sleep.
type EventFunc func(Event)

// Driver is the Blockchain Access Layer's view of a system under test. One
// Driver instance represents a freshly provisioned network, matching the
// paper's re-provisioning between benchmark units (§4.1). The runner and
// the fault injector reach a system through these methods alone. A driver
// embeds the Cluster chassis, which answers all of them but Start, Stop,
// Submit and Preload.
type Driver interface {
	// Name returns the system's display name (e.g. "Fabric", "Corda OS").
	Name() string
	// Start boots all nodes and auxiliary components.
	Start() error
	// Stop tears the network down: its clock events stop and leave no
	// deadline armed, and the work they had in flight is lost with the
	// process.
	Stop()
	// Submit sends one transaction into the system through the given entry
	// node index (clients spread across servers, §4.3). A non-nil error is
	// an admission rejection; the transaction is lost unless re-sent.
	Submit(entryNode int, tx *chain.Transaction) error
	// Subscribe registers the finalization listener for a client name.
	Subscribe(client string, fn EventFunc)
	// NodeCount reports the network size (for scalability experiments).
	NodeCount() int
	// CrashNode halts node index's commit plane: submissions through it are
	// rejected with ErrNodeDown and it stops persisting transactions (so the
	// hub's "persisted on all nodes" criterion stalls for work decided while
	// it is down). Crashing an already-crashed node is a no-op; an
	// out-of-range index is an error.
	CrashNode(node int) error
	// RestartNode recovers a crashed node: it catches up on the commits it
	// missed, in the order the surviving nodes applied them (modeling the
	// state-transfer real systems perform on rejoin), and resumes normal
	// participation. Restarting a node that is not crashed, or is already
	// recovering, is a no-op; an out-of-range index is an error. Recovery
	// runs in steps with modeled time between them (log replay, re-fetch):
	// RestartNode runs it up to its first wait and returns it, zero once
	// recovery is over, and the caller waits that long on the clock and
	// calls ResumeNode for the next, until it returns zero.
	RestartNode(node int) (time.Duration, error)
	// ResumeNode runs the recovery of a node whose last wait has passed up
	// to its next wait, zero once recovery is over.
	ResumeNode(node int) time.Duration

	// Preload seeds every node's world state directly, bypassing consensus
	// — the YCSB "load phase" analogue. The contention workload plane uses
	// it to materialize shared key spaces and SmallBank account pools before
	// load starts, so measured abort rates reflect genuine runtime conflicts
	// rather than setup races. It runs after Start and before any Submit.
	Preload(ops []chain.Operation) error
	// ConflictCounts reports, per abort code, the work the system shed
	// without a client event (BitShares' interacting-operation exclusion,
	// Sawtooth's atomic batch discard, Corda's notary rejections); nil when
	// it sheds nothing. Counts are cumulative: the runner snapshots them
	// around each phase and folds the deltas into the conflict breakdown
	// alongside client-observed aborts.
	ConflictCounts() map[string]uint64
	// Drained reports whether no submitted work remains unprocessed. The
	// runner polls it between unit members, mirroring the paper's
	// inter-benchmark gap (clients terminate at 420s, 90s after listening
	// stops, §4.3); systems whose queues cannot hold work across phases
	// report true.
	Drained() bool
	// QueueSnapshot is one instantaneous reading of the queueing and
	// durability planes, sampled once per timeline window.
	QueueSnapshot() QueueStats
	// RecoveryStats returns the durability plane's cumulative counters and
	// whether a write-ahead log is mounted (false means the stats are
	// structurally zero and are not folded into results).
	RecoveryStats() (RecoveryStats, bool)
	// NodeWAL returns node i's write-ahead log, the fault injector's target
	// for TornWrite and CorruptRecord; nil when durability is disabled or i
	// is out of range, which turns those events into no-ops.
	NodeWAL(node int) *wal.Log
	// FaultTransport returns the transport the nodes talk over, the fault
	// injector's target for DegradeLink and SlowNode; nil for a system
	// without a message fabric (Corda's flows are synchronous calls), which
	// turns those events into no-ops.
	FaultTransport() *network.Transport
	// NodeEndpoints returns the transport endpoints node i owns (nil when it
	// owns none or i is out of range): what a link fault aimed at it
	// degrades.
	NodeEndpoints(node int) []string
}

// QueueStats is one instantaneous occupancy snapshot of a driver's
// queueing and durability planes. The telemetry sampler reads it on the
// driver clock once per Timeline window, so queue growth and saturation
// are visible over a run instead of only as end-of-run totals. Fields a
// system has no equivalent for stay zero (Corda has no transport, so
// NetPending is 0).
type QueueStats struct {
	// HubInflight is the commit hub's in-flight transaction count:
	// submitted work not yet persisted on every node.
	HubInflight int
	// MempoolDepth is the pending-transaction backlog summed across the
	// nodes' admission queues (pools, ingress queues, flow mailboxes).
	MempoolDepth int
	// GateBacklog is the commit work buffered behind crashed nodes' gates
	// plus any in-flight replay remainder.
	GateBacklog int
	// WALLiveBytes is the live write-ahead-log footprint summed across
	// nodes (0 when durability is disabled).
	WALLiveBytes int64
	// WALUnsynced is the appended-but-not-fsynced record tail summed
	// across nodes: what a crash right now would lose.
	WALUnsynced int
	// NetPending is the transport's scheduled-but-undelivered message
	// count (the delivery queue's backlog).
	NetPending int64
}

// Registry of canonical system names used in reports.
const (
	NameCordaOS   = "Corda OS"
	NameCordaEnt  = "Corda Enterprise"
	NameBitShares = "BitShares"
	NameFabric    = "Fabric"
	NameQuorum    = "Quorum"
	NameSawtooth  = "Sawtooth"
	NameDiem      = "Diem"
)
