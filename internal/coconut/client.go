package coconut

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/workload"
)

// BatchSubmitter is implemented by drivers that accept atomic batches
// (Sawtooth). A run with BatchSize > 1 requires it.
type BatchSubmitter interface {
	SubmitBatch(entryNode int, b *chain.Batch) error
}

// clientThread is one workload thread: a lane of the pacer with its own
// generator and key-space cursor. Everything but received belongs to whoever
// sends (the pacer event; the main actor at t=0) and is only read by others
// after the pacer has stopped; received is counted by onEvent.
type clientThread struct {
	sent     uint64
	received uint64

	gen     OpGen
	idx     uint64 // next generator index
	readMax uint64 // non-zero: indices wrap into the key space the write phase confirmed
}

// Client is one COCONUT client application: it paces sends according to the
// arrival schedule, deals them to the workload threads in turn, and streams
// finalization notifications into online counters and a latency histogram,
// so its memory is bounded by the in-flight window, not the run length. The
// paper runs four client applications, each with four client threads of four
// workload threads (16 senders per application), each application targeting
// a different server (§4.3).
type Client struct {
	// cfg is the run the client belongs to: its rate limit, arrival
	// schedule, workload threads, payload packing, phase windows and tracer
	// are the run's.
	cfg *RunConfig

	// id is the client application's name, stable across unit members and
	// repetitions so read phases regenerate the write phase's keys; events
	// route to it.
	id          string
	entryNode   int // the node this client sends to
	bench       BenchmarkName
	readMax     []uint64 // per thread: non-zero wraps read indices into the written key space
	gen         func(thread int) OpGen
	arrivalSeed int64
	timeline    *Timeline
	clk         *clock.AutoVirtual
	driver      systems.Driver

	seq     uint64
	threads []clientThread
	hist    *LatencyHist
	stages  StageMetrics

	// The in-flight index and the online repetition summary are streamed as
	// sends and events happen, so phase-end aggregation never walks the full
	// record set. Sends update them on the sending actor, confirmations on
	// whichever actor the driver commits on: one at a time, under the
	// clock's token.
	inflight    map[crypto.Hash]inflightTx
	expectedOps int
	receivedOps int
	validOps    int
	latencySum  time.Duration
	latencyN    int
	firstSendNs int64          // math.MaxInt64 until the first send
	lastRecvNs  int64          // math.MinInt64 until the first receipt
	aborts      map[string]int // per-reason abort payload counts
}

// inflightTx is what the client keeps of a sent transaction until its
// finalization event: the send instant (the paper's T0), the payloads it
// carried, and the workload thread that sent it.
type inflightTx struct {
	start  time.Time
	ops    int
	thread int
}

// newClient builds client i of a bench phase in repetition rep of the run
// cfg, which Run has filled and checked. The client sends to node i, wraps
// each workload thread's indices by readMax, and feeds timeline when it is
// set. gen, when set, is called once per workload thread for that thread's
// operation generator; nil draws from cfg.Workload when the run has one,
// and otherwise from the paper's per-thread partitioned benchmark
// generators. Subscribe must happen before the system starts delivering
// events, so construction registers the event listener.
func newClient(cfg *RunConfig, clk *clock.AutoVirtual, driver systems.Driver, timeline *Timeline, i, rep int, bench BenchmarkName, readMax []uint64, gen func(thread int) OpGen) *Client {
	if gen == nil && cfg.Workload != nil {
		gen = func(thread int) OpGen {
			return OpGen(cfg.Workload.Generator(workload.Placement{
				Client: i, Clients: cfg.Clients,
				Thread: thread, Threads: cfg.WorkloadThreads,
			}))
		}
	}
	c := &Client{
		cfg:       cfg,
		id:        fmt.Sprintf("coconut-client-%d", i),
		entryNode: i,
		bench:     bench,
		readMax:   readMax,
		gen:       gen,
		// Decorrelate randomized arrival streams across clients and
		// repetitions while keeping runs reproducible.
		arrivalSeed: cfg.ArrivalSeed + int64(i)*7919 + int64(rep)*104729,
		timeline:    timeline,
		clk:         clk,
		driver:      driver,
		threads:     make([]clientThread, cfg.WorkloadThreads),
		hist:        NewLatencyHist(),
		inflight:    make(map[crypto.Hash]inflightTx),
		firstSendNs: math.MaxInt64,
		lastRecvNs:  math.MinInt64,
	}
	driver.Subscribe(c.id, c.onEvent)
	return c
}

// onEvent records a finalization notification (the paper's T3) and streams
// it out of the in-flight index: the transaction's summary contribution is
// folded in immediately and the index entry is dropped, so the index size
// tracks outstanding transactions, not run length.
func (c *Client) onEvent(ev systems.Event) {
	now := c.clk.Now()
	tx, ok := c.inflight[ev.TxID]
	if !ok {
		// Unknown or already-finalized transaction, or the phase is over: drop.
		return
	}
	delete(c.inflight, ev.TxID)
	ops, start := tx.ops, tx.start
	fls := now.Sub(start)
	c.receivedOps += ops
	if ev.ValidOK {
		c.validOps += ops
	} else {
		if c.aborts == nil {
			c.aborts = make(map[string]int)
		}
		c.aborts[abortCode(ev.Code)] += ops
	}
	// Ops-weighted: §4.5 counts every payload as one transaction, so a
	// multi-op transaction's latency weighs once per operation — matching
	// ReceivedNoT and the timeline's accounting.
	c.latencySum += fls * time.Duration(ops)
	c.latencyN += ops
	c.lastRecvNs = max(c.lastRecvNs, now.UnixNano())
	c.hist.ObserveN(fls, uint64(ops))
	if tx.thread >= 0 && tx.thread < len(c.threads) {
		c.threads[tx.thread].received += uint64(ops)
	}
	// The confirmation instant closes the commit segment.
	if ev.Stages != nil {
		var buf [chain.NumStages]chain.StageSpan
		spans := ev.Stages.Durations(start, now, buf[:0])
		for _, sp := range spans {
			c.stages.Observe(sp.Stage, sp.Dur, ops)
		}
		// Sampled transactions additionally resolve into a contiguous span
		// chain on their own trace lane, end to end from send to confirm.
		if tr := c.cfg.Trace; tr.Sampled(trace.Key(ev.TxID)) {
			key := trace.Key(ev.TxID)
			lane := fmt.Sprintf("tx-%016x", key)
			cursor := start.UnixNano()
			for _, sp := range spans {
				spanEnd := cursor + int64(sp.Dur)
				tr.Add(trace.Span{Key: key, Name: sp.Stage.String(), Cat: "stage",
					Proc: c.driver.Name(), Lane: lane, Start: cursor, End: spanEnd, Block: ev.BlockNum})
				cursor = spanEnd
			}
		}
	}
	if c.timeline != nil {
		c.timeline.RecordRecv(now, ops, fls, ev.ValidOK)
	}
}

// Run executes the send and listen phases, blocking until both complete;
// read the phase's metrics from Summary, SentCounts and ReceivedCounts.
//
// One clock event paces every send: each run of it sends one transaction or
// batch, which accounts for OpsPerTx*BatchSize payloads against the rate
// limit, on the next workload thread in turn, and re-arms itself with the
// arrival schedule's next gap (uniform gaps reproduce the paper's rate
// limiter; a zero gap sends again as soon as what this send woke has run).
// Sends never wait for finalization confirmations (§4.3).
func (c *Client) Run() {
	clk := c.clk
	payloadsPerSend := c.cfg.OpsPerTx * c.cfg.BatchSize
	interval := time.Duration(float64(time.Second) * float64(payloadsPerSend) / float64(c.cfg.RateLimit))
	if interval <= 0 {
		interval = time.Microsecond
	}
	gaps := c.cfg.Arrival.Gaps(interval, c.arrivalSeed)

	lanes := c.lanes()
	next := 0
	var pacer *clock.Event
	pacer = clock.NewEvent(clk, c.id+"/pacer", func() {
		c.send(lanes[next])
		next = (next + 1) % len(lanes)
		pacer.After(gaps())
	})
	if len(lanes) > 0 {
		// Warm start: the first send happens immediately (the paper's threads
		// start sending at t=0), then the pacer enforces the schedule. The
		// first lane also takes the first paced slot.
		c.send(lanes[0])
		pacer.After(gaps())
	}
	clk.Sleep(c.cfg.SendDuration)
	pacer.Stop()
	clk.Sleep(c.cfg.ListenGrace)
	c.detach()
}

// lanes prepares every workload thread's generator and returns the threads
// that send, in the order they take turns: by thread name ("w0", "w1",
// "w10", …, "w2", …), the order the clock's name tie-break gave them when
// each was an actor, which per-thread sent counts, and through them the key
// space of a dependent read phase, were calibrated against.
func (c *Client) lanes() []int {
	readPhase := ReadBenchmarkDependsOnWrite(c.bench) != "" && len(c.readMax) > 0
	var lanes []int
	for t := range c.threads {
		th := &c.threads[t]
		if c.gen != nil {
			th.gen = c.gen(t)
		} else {
			th.gen = NewOpGen(c.bench, c.id+"/"+strconv.Itoa(t))
		}
		if t < len(c.readMax) {
			th.readMax = c.readMax[t]
		}
		// A read thread whose write-phase counterpart got nothing accepted has
		// no key space to read; it stays idle rather than querying keys that
		// were never written.
		if readPhase && th.readMax == 0 {
			continue
		}
		lanes = append(lanes, t)
	}
	sort.Slice(lanes, func(i, j int) bool { return strconv.Itoa(lanes[i]) < strconv.Itoa(lanes[j]) })
	return lanes
}

// send submits one transaction, or one batch, on a workload thread.
func (c *Client) send(thread int) {
	if c.cfg.BatchSize > 1 {
		c.sendBatch(thread)
	} else {
		c.sendTx(thread)
	}
}

// detach ends the listening phase: it clears the in-flight index, so an
// event that arrives later finds nothing and leaves the counters alone.
func (c *Client) detach() { c.inflight = make(map[crypto.Hash]inflightTx) }

// Summary returns the client's online phase aggregation; call after Run.
func (c *Client) Summary() ClientSummary {
	s := ClientSummary{
		ExpectedNoT: c.expectedOps,
		ReceivedNoT: c.receivedOps,
		ValidNoT:    c.validOps,
		LatencySum:  c.latencySum,
		LatencyN:    c.latencyN,
		Hist:        c.hist,
		Stages:      &c.stages,
	}
	if len(c.aborts) > 0 {
		s.Aborts = make(map[string]int, len(c.aborts))
		for code, n := range c.aborts {
			s.Aborts[code] = n
		}
	}
	if c.firstSendNs != math.MaxInt64 {
		s.FirstSend = time.Unix(0, c.firstSendNs)
	}
	if c.lastRecvNs != math.MinInt64 {
		s.LastRecv = time.Unix(0, c.lastRecvNs)
	}
	return s
}

// nextOp generates the thread's next operation, wrapping its index into the
// written key space for read benchmarks.
func (th *clientThread) nextOp() chain.Operation {
	i := th.idx
	th.idx++
	if th.readMax > 0 {
		i %= th.readMax
	}
	return th.gen(i)
}

func (c *Client) sendTx(thread int) {
	th := &c.threads[thread]
	var tx *chain.Transaction
	c.seq++
	if c.cfg.OpsPerTx == 1 {
		tx = chain.NewSingleOpTx(c.id, c.seq, th.nextOp())
	} else {
		ops := make([]chain.Operation, c.cfg.OpsPerTx)
		for i := range ops {
			ops[i] = th.nextOp()
		}
		tx = chain.NewTransaction(c.id, c.seq, ops...)
	}
	ops := tx.OpCount()

	start := c.clk.Now()
	tx.SubmittedAt = start
	c.track(tx.ID, start, ops, thread)
	// A submission error is an admission rejection: the transaction stays
	// unreceived and counts as lost, matching the paper's accounting. The
	// consumed indices roll back so the written key space stays
	// contiguous — rejected writes never reached the chain, and the
	// paper's clients re-send into the same space.
	if err := c.driver.Submit(c.entryNode, tx); err != nil {
		th.idx -= uint64(ops)
		return
	}
	th.sent += uint64(ops)
}

func (c *Client) sendBatch(thread int) {
	th := &c.threads[thread]
	txs := make([]*chain.Transaction, c.cfg.BatchSize)
	start := c.clk.Now()
	for i := range txs {
		c.seq++
		txs[i] = chain.NewSingleOpTx(c.id, c.seq, th.nextOp())
		txs[i].SubmittedAt = start
		c.track(txs[i].ID, start, 1, thread)
	}
	// On rejection (Sawtooth's full queue) the whole batch is lost and its
	// key range rolls back for reuse by the next batch.
	if err := c.driver.(BatchSubmitter).SubmitBatch(c.entryNode, chain.NewBatch(txs...)); err != nil {
		th.idx -= uint64(len(txs))
		return
	}
	th.sent += uint64(len(txs))
}

// track registers a transaction in the in-flight index before submission,
// so its finalization event can never outrun it.
func (c *Client) track(id crypto.Hash, start time.Time, ops, thread int) {
	c.inflight[id] = inflightTx{start: start, ops: ops, thread: thread}
	c.expectedOps += ops
	c.firstSendNs = min(c.firstSendNs, start.UnixNano())
	if c.timeline != nil {
		c.timeline.RecordSend(start, ops)
	}
}

// SentCounts returns the per-thread payload counts the driver accepted;
// call after Run.
func (c *Client) SentCounts() []uint64 {
	out := make([]uint64, len(c.threads))
	for i := range c.threads {
		out[i] = c.threads[i].sent
	}
	return out
}

// ReceivedCounts returns the per-thread payload counts that were confirmed
// end to end. Admission queues are FIFO, so the confirmed prefix of each
// thread's key space is contiguous — the runner feeds these counts into
// dependent read phases as ReadMax.
func (c *Client) ReceivedCounts() []uint64 {
	out := make([]uint64, len(c.threads))
	for i := range c.threads {
		out[i] = c.threads[i].received
	}
	return out
}
