package coconut

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
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
// sends (the runner at t=0, the pacer event after) and is only read by others
// after the send window has ended; received is counted by onEvent.
type clientThread struct {
	sent     uint64
	received uint64

	gen     OpGen
	idx     uint64 // next generator index
	readMax uint64 // non-zero: indices wrap into the key space the write phase confirmed
}

// Client is one COCONUT client application: it paces sends according to the
// arrival schedule, deals them to the workload threads in turn, and streams
// finalization notifications into its phase's tally, so its memory is
// bounded by the in-flight window, not the run length. It has no goroutine: the
// runner makes its first send and its pacer event makes the rest. The paper
// runs four client applications, each with four client threads of four
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
	clk         *clock.AutoVirtual
	driver      systems.Driver

	seq     uint64
	threads []clientThread

	// The phase's in-flight table and tally, shared by its clients, are
	// streamed as sends and events happen, so phase-end aggregation never
	// walks the record set. Sends update them on the runner or the pacer
	// event, confirmations on whichever event the driver commits on: one at
	// a time, on the clock's event loop.
	inflight *inflightTable
	tally    *tally
}

// inflightTx is what a phase keeps of a sent transaction until its
// finalization event: the send instant (the paper's T0) in nanoseconds
// since clock.SimEpoch, the payloads it carried, and the workload thread
// that sent it. ops is 0 once the event has been counted.
type inflightTx struct {
	start  int64
	ops    int32
	thread int32
}

// inflightTable is one phase's in-flight table, shared by the phase's
// clients. It numbers the transactions they send densely from first, where
// the repetition's previous phase left off, and keeps the record of
// transaction number n at recs[n-first].
type inflightTable struct {
	first uint64
	recs  []inflightTx
}

// newInflightTable starts a phase's table at number first, with room for
// capacity records.
func newInflightTable(first uint64, capacity int) *inflightTable {
	return &inflightTable{first: first, recs: make([]inflightTx, 0, capacity)}
}

// add records a transaction of ops payloads that thread sent at start, and
// returns its number.
func (t *inflightTable) add(start time.Time, ops, thread int) uint64 {
	t.recs = append(t.recs, inflightTx{start: int64(start.Sub(clock.SimEpoch)), ops: int32(ops), thread: int32(thread)})
	return t.first + uint64(len(t.recs)) - 1
}

// take returns the record of transaction num and marks it counted. It
// reports false for a number outside the phase or one already counted.
func (t *inflightTable) take(num uint64) (inflightTx, bool) {
	i := num - t.first // a number below first wraps past the end
	if i >= uint64(len(t.recs)) {
		return inflightTx{}, false
	}
	r := &t.recs[i]
	if r.ops == 0 {
		return inflightTx{}, false
	}
	tx := *r
	r.ops = 0
	return tx, true
}

// newClient builds client i of a bench phase in repetition rep of the run
// cfg, which Run has filled and checked. The client sends to node i, wraps
// each workload thread's indices by readMax, numbers its transactions in
// the phase's in-flight table txs, and streams into the phase's tally.
// gen, when set, is called once per workload thread for that thread's
// operation generator; nil draws from cfg.Workload when the run has one,
// and otherwise from the paper's per-thread partitioned benchmark
// generators. Subscribe must happen before the system starts delivering
// events, so construction registers the event listener.
func newClient(cfg *RunConfig, clk *clock.AutoVirtual, driver systems.Driver, tl *tally, txs *inflightTable, i, rep int, bench BenchmarkName, readMax []uint64, gen func(thread int) OpGen) *Client {
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
		clk:         clk,
		driver:      driver,
		threads:     make([]clientThread, cfg.WorkloadThreads),
		inflight:    txs,
		tally:       tl,
	}
	driver.Subscribe(c.id, c.onEvent)
	return c
}

// onEvent records a finalization notification (the paper's T3) and streams
// it out of the in-flight table: the transaction, found by its number, is
// folded into the tally immediately and its record is marked counted.
func (c *Client) onEvent(ev systems.Event) {
	if c.inflight == nil {
		return // the phase is over
	}
	tx, ok := c.inflight.take(ev.Num)
	if !ok {
		// Another phase's or an already-finalized transaction: drop.
		return
	}
	now := c.clk.Now()
	ops, start := int(tx.ops), clock.SimEpoch.Add(time.Duration(tx.start))
	c.tally.received(now, start, ops, ev.ValidOK, ev.Code)
	c.threads[tx.thread].received += uint64(ops)
	// The confirmation instant closes the commit segment.
	if ev.Stages != nil {
		var buf [chain.NumStages]chain.StageSpan
		spans := ev.Stages.Durations(start, now, buf[:0])
		for _, sp := range spans {
			c.tally.stages.Observe(sp.Stage, sp.Dur, ops)
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
}

// start begins the client's send window, which ends at sendEnd: the first
// sending thread sends at once (the paper's threads start sending at t=0),
// and one clock event paces the rest. Each run of the event sends one
// transaction or batch, which accounts for OpsPerTx*BatchSize payloads
// against the rate limit, on the next workload thread in turn, and re-arms
// itself with the arrival schedule's next gap (uniform gaps reproduce the
// paper's rate limiter; a zero gap sends again as soon as what this send
// woke has run) while that falls strictly before sendEnd. The first thread
// also takes the first paced slot. Sends never wait for finalization
// confirmations (§4.3).
func (c *Client) start(sendEnd time.Time) {
	lanes := c.lanes()
	if len(lanes) == 0 {
		return
	}
	gaps := c.cfg.Arrival.Gaps(c.cfg.sendInterval(), c.arrivalSeed)
	next := 0
	var pacer *clock.Event
	arm := func() {
		if at := c.clk.Now().Add(gaps()); at.Before(sendEnd) {
			pacer.At(at)
		}
	}
	pacer = clock.NewEvent(c.clk, c.id+"/pacer", func() {
		c.send(lanes[next])
		next = (next + 1) % len(lanes)
		arm()
	})
	c.send(lanes[0])
	arm()
}

// lanes prepares every workload thread's generator and returns the threads
// that send, in the order they take turns: by thread name ("w0", "w1",
// "w10", …, "w2", …), the order the clock's name tie-break gave them when
// each was a goroutine of its own, which per-thread sent counts, and through them the key
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

// detach ends the listening phase: it drops the in-flight table, so an
// event that arrives later finds nothing and leaves the counters alone.
func (c *Client) detach() { c.inflight = nil }

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

	tx.Num = c.track(c.clk.Now(), ops, thread)
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
		txs[i].Num = c.track(start, 1, thread)
	}
	// On rejection (Sawtooth's full queue) the whole batch is lost and its
	// key range rolls back for reuse by the next batch.
	if err := c.driver.(BatchSubmitter).SubmitBatch(c.entryNode, chain.NewBatch(txs...)); err != nil {
		th.idx -= uint64(len(txs))
		return
	}
	th.sent += uint64(len(txs))
}

// track numbers a transaction of ops payloads that thread sends at start,
// registering it in the phase's in-flight table before submission so its
// finalization event can never outrun it, and returns its number.
func (c *Client) track(start time.Time, ops, thread int) uint64 {
	c.tally.sent(start, ops)
	return c.inflight.add(start, ops, thread)
}

// SentCounts returns the per-thread payload counts the driver accepted;
// call after the phase.
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
