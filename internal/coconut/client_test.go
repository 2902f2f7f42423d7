package coconut

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/systemstest"
)

// fakeDriver is a scriptable systems.Driver for client unit tests; the
// chassis answers the hooks it does not script. It mimics the hub's fault
// semantics: while any node is crashed, confirmed submissions buffer and
// flush when the node restarts ("persisted on all nodes" stalls during an
// outage and catches up after recovery).
type fakeDriver struct {
	*systems.Cluster
	subs      map[string]systems.EventFunc
	submitted []*chain.Transaction
	batches   []*chain.Batch
	down      map[int]bool
	deferred  []systems.Event
	// confirm controls whether a submission is confirmed immediately.
	confirm func(tx *chain.Transaction) bool
}

var (
	_ systems.Driver = (*fakeDriver)(nil)
	_ BatchSubmitter = (*fakeDriver)(nil)
)

func newFakeDriver() *fakeDriver {
	return &fakeDriver{
		Cluster: systems.NewCluster("fake", systems.NodeIDs("fake", 4), systems.Env{}, func() int { return 0 }),
		subs:    make(map[string]systems.EventFunc),
		confirm: func(*chain.Transaction) bool { return true },
	}
}

func (f *fakeDriver) Start() error                    { return nil }
func (f *fakeDriver) Stop()                           {}
func (f *fakeDriver) Preload([]chain.Operation) error { return nil }

func (f *fakeDriver) Subscribe(client string, fn systems.EventFunc) {
	f.subs[client] = fn
}

func (f *fakeDriver) Submit(entry int, tx *chain.Transaction) error {
	if f.down[entry%f.NodeCount()] {
		return systems.ErrNodeDown
	}
	f.submitted = append(f.submitted, tx)
	fn := f.subs[tx.Client]
	ok := f.confirm(tx)
	ev := systems.Event{
		TxID:      tx.ID,
		Num:       tx.Num,
		Client:    tx.Client,
		Committed: true,
		ValidOK:   true,
		OpCount:   tx.OpCount(),
	}
	if ok && len(f.down) > 0 {
		// Some node is down: the tx commits on the survivors but the
		// end-to-end event waits for the crashed node's restart.
		f.deferred = append(f.deferred, ev)
		return nil
	}
	if ok && fn != nil {
		fn(ev)
	}
	return nil
}

func (f *fakeDriver) CrashNode(node int) error {
	if f.down == nil {
		f.down = make(map[int]bool)
	}
	f.down[node%f.NodeCount()] = true
	return nil
}

func (f *fakeDriver) RestartNode(node int) (time.Duration, error) {
	delete(f.down, node%f.NodeCount())
	var flush []systems.Event
	if len(f.down) == 0 {
		flush = f.deferred
		f.deferred = nil
	}
	for _, ev := range flush {
		if fn := f.subs[ev.Client]; fn != nil {
			fn(ev)
		}
	}
	return 0, nil
}

func (f *fakeDriver) SubmitBatch(entry int, b *chain.Batch) error {
	f.batches = append(f.batches, b)
	for _, tx := range b.Txs {
		if err := f.Submit(entry, tx); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeDriver) submittedCount() int { return len(f.submitted) }

// testClient builds client 0 of the phase of cfg's first unit member, with
// cfg filled with Run's defaults and a tally and in-flight table of its own,
// numbering from 1, on d and clk; a nil clk is a fresh auto-advancing clock
// with the test registered as its actor.
func testClient(t *testing.T, d systems.Driver, clk *clock.AutoVirtual, cfg RunConfig) *Client {
	t.Helper()
	if clk == nil {
		clk = systemstest.Env(t).Clock
	}
	cfg.fill()
	return newClient(&cfg, clk, d, newTally(nil), testTable(), 0, 0, cfg.Unit[0], nil, nil)
}

// testTable is the in-flight table of a repetition's first phase, which
// numbers from 1 as the runner's does.
func testTable() *inflightTable { return newInflightTable(1, 0) }

// runPhase drives the client through the runner's phase — start, send
// window, listening grace, detach — and returns the phase's tally: with one
// operation per transaction, expectedOps is the number of transactions it
// sent.
func runPhase(c *Client) *tally {
	drive(c.clk, c.cfg, []*Client{c})
	return c.tally
}

func TestClientSendsAndCollects(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       500,
		WorkloadThreads: 2,
		SendDuration:    200 * time.Millisecond,
		ListenGrace:     50 * time.Millisecond,
	})
	s := runPhase(c)
	if s.expectedOps == 0 {
		t.Fatal("no transactions sent")
	}
	if s.receivedOps != s.expectedOps || s.latencyN != s.receivedOps {
		t.Fatalf("received %d of %d (%d latencies), want every immediately-confirmed tx",
			s.receivedOps, s.expectedOps, s.latencyN)
	}
	if s.latencySum < 0 || s.lastRecvNs < s.firstSendNs {
		t.Fatalf("endtime before starttime: latency sum %v, first send %v, last receipt %v",
			s.latencySum, s.firstSendNs, s.lastRecvNs)
	}
}

func TestClientRateLimit(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       100, // 100 payloads/s over 300ms → ~30 expected
		WorkloadThreads: 4,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	sent := runPhase(c).expectedOps
	// Warm-start token plus pacing: allow generous headroom but catch a
	// broken limiter (which would send thousands).
	if sent > 60 {
		t.Fatalf("sent %d transactions in 300ms at RL=100 (limiter broken)", sent)
	}
	if sent < 10 {
		t.Fatalf("sent only %d transactions (pacer stalled)", sent)
	}
}

func TestClientLostTransactionsStayUnreceived(t *testing.T) {
	d := newFakeDriver()
	d.confirm = func(tx *chain.Transaction) bool {
		// Confirm every other transaction.
		return tx.Seq%2 == 0
	}
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       1000,
		WorkloadThreads: 1,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	res := runPhase(c).result()
	if res.ReceivedNoT == 0 || res.ReceivedNoT >= res.ExpectedNoT {
		t.Fatalf("NoT = %d/%d: lost transactions not reflected in the accounting",
			res.ReceivedNoT, res.ExpectedNoT)
	}
	if got, want := res.ReceivedNoT, d.submittedCount()/2; got < want-1 || got > want+1 {
		t.Fatalf("received %d of %d sent, want every other one", got, d.submittedCount())
	}
}

func TestClientOpsPerTx(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       1000,
		WorkloadThreads: 1,
		OpsPerTx:        50,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	s := runPhase(c)
	if len(d.submitted) == 0 {
		t.Fatal("nothing sent")
	}
	// §4.5: each operation counts as one transaction.
	if s.expectedOps != 50*len(d.submitted) || s.receivedOps != s.expectedOps {
		t.Fatalf("NoT = %d/%d for %d transactions, want 50 per transaction",
			s.receivedOps, s.expectedOps, len(d.submitted))
	}
	for _, tx := range d.submitted {
		if tx.OpCount() != 50 {
			t.Fatalf("submitted tx has %d ops, want 50", tx.OpCount())
		}
	}
}

func TestClientBatchesUseBatchSubmitter(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       1000,
		WorkloadThreads: 1,
		BatchSize:       10,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	sent := runPhase(c).expectedOps
	batches := len(d.batches)
	if batches == 0 {
		t.Fatal("no batches submitted despite BatchSize=10")
	}
	if sent != batches*10 {
		t.Fatalf("sent %d transactions, want %d (10 per batch)", sent, batches*10)
	}
}

// TestClientPacksOperationsWithTheirIDs: whichever way the client packs
// operations (one per transaction, several, or a batch of single-operation
// transactions), each reaches the driver as the generator made it, and every
// transaction's ID is the one NewTransaction derives from its operations.
func TestClientPacksOperationsWithTheirIDs(t *testing.T) {
	for name, cfg := range map[string]RunConfig{
		"single":   {},
		"multi-op": {OpsPerTx: 3},
		"batch":    {BatchSize: 5},
	} {
		d := newFakeDriver()
		cfg.Unit = []BenchmarkName{BenchSendPayment}
		cfg.RateLimit, cfg.WorkloadThreads = 1000, 2
		cfg.SendDuration, cfg.ListenGrace = 50*time.Millisecond, 10*time.Millisecond
		runPhase(testClient(t, d, nil, cfg))
		if len(d.submitted) == 0 {
			t.Fatalf("%s: nothing sent", name)
		}
		for _, tx := range d.submitted {
			for _, op := range tx.Ops {
				if op.IEL != iel.BankingAppName || op.Function != iel.FnSendPayment || len(op.Args) != 3 {
					t.Fatalf("%s: %s reached the driver, want a SendPayment", name, op)
				}
			}
			if want := chain.NewTransaction(tx.Client, tx.Seq, tx.Ops...); tx.ID != want.ID {
				t.Fatalf("%s: tx %d has ID %s, want %s", name, tx.Seq, tx.ID.Short(), want.ID.Short())
			}
		}
	}
}

func TestClientReadMaxWrapsIndices(t *testing.T) {
	d := newFakeDriver()
	cfg := RunConfig{
		RateLimit:       2000,
		WorkloadThreads: 1,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	}
	cfg.fill()
	// Only keys 0..2 were "written".
	c := newClient(&cfg, systemstest.Env(t).Clock, d, newTally(nil), testTable(), 0, 0, BenchKeyValueGet, []uint64{3}, nil)
	runPhase(c)
	if len(d.submitted) < 4 {
		t.Fatalf("need > 3 sends to observe wrapping, got %d", len(d.submitted))
	}
	for _, tx := range d.submitted {
		key := tx.Ops[0].Args[0]
		// Keys must come from the wrapped space kv/coconut-client-0/0/{0,1,2}.
		if !strings.HasSuffix(key, "/0") && !strings.HasSuffix(key, "/1") && !strings.HasSuffix(key, "/2") {
			t.Fatalf("key %q outside ReadMax=3 space", key)
		}
	}
}

func TestClientSentCountsMatchSubmitted(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		Unit:            []BenchmarkName{BenchKeyValueSet},
		RateLimit:       500,
		WorkloadThreads: 3,
		SendDuration:    150 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	s := runPhase(c)
	counts := c.SentCounts()
	if len(counts) != 3 {
		t.Fatalf("SentCounts len = %d, want 3", len(counts))
	}
	var total uint64
	for _, n := range counts {
		total += n
	}
	if int(total) != d.submittedCount() || int(total) != s.expectedOps {
		t.Fatalf("SentCounts total = %d, submitted = %d, tally = %d", total, d.submittedCount(), s.expectedOps)
	}
}

// TestClientStreamsOnlineMetrics checks the streamed accounting: the tally
// and per-thread counters carry the full phase, every in-flight record is
// counted, and the client lets go of the table once the phase ends.
func TestClientStreamsOnlineMetrics(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       500,
		WorkloadThreads: 2,
		SendDuration:    150 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	sum := runPhase(c)
	if sum.expectedOps == 0 || sum.receivedOps == 0 {
		t.Fatalf("tally empty: %d sent, %d received", sum.expectedOps, sum.receivedOps)
	}
	if sum.receivedOps != sum.expectedOps {
		t.Fatalf("fake driver confirms everything, yet %d/%d received",
			sum.receivedOps, sum.expectedOps)
	}
	if sum.hist.Count() == 0 {
		t.Fatal("latency histogram not streamed")
	}
	var received uint64
	for _, n := range c.ReceivedCounts() {
		received += n
	}
	if int(received) != sum.receivedOps {
		t.Fatalf("per-thread received = %d, tally = %d", received, sum.receivedOps)
	}
	if c.inflight != nil {
		t.Fatal("the client still holds the phase's in-flight table after detach")
	}
}

func TestClientIgnoresUnknownEvents(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       100,
		WorkloadThreads: 1,
		SendDuration:    50 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	// Fire a stray event for a number this client never gave out.
	ghost := chain.NewSingleOp("other", 99, "donothing", "DoNothing")
	d.subs["coconut-client-0"](systems.Event{TxID: ghost.ID, Num: 99, Client: "coconut-client-0", Committed: true})
	s := runPhase(c)
	if s.receivedOps != s.expectedOps || s.expectedOps != d.submittedCount() {
		t.Fatalf("NoT = %d/%d for %d sent: the stray event was counted", s.receivedOps, s.expectedOps, d.submittedCount())
	}
}

// TestClientCarriesNoHistogram pins where a phase's histograms live: in its
// one shared tally, not in every client, so a client costs a few words
// however many stages it times.
func TestClientCarriesNoHistogram(t *testing.T) {
	if c, h := unsafe.Sizeof(Client{}), unsafe.Sizeof(LatencyHist{}); c >= h {
		t.Fatalf("a Client is %d bytes, a LatencyHist %d: the client carries a histogram", c, h)
	}
}

// TestClientNumbersTransactionsDensely: a repetition numbers its
// transactions 1, 2, 3, … in the order its clients submit them, across every
// phase of the repetition and every member of a batch, and the next
// repetition starts again at 1.
func TestClientNumbersTransactionsDensely(t *testing.T) {
	var drivers []*fakeDriver
	results, err := Run(RunConfig{
		SystemName: "fake",
		NewDriver: func(*clock.AutoVirtual) systems.Driver {
			drivers = append(drivers, newFakeDriver())
			return drivers[len(drivers)-1]
		},
		Unit:            []BenchmarkName{BenchKeyValueSet, BenchKeyValueGet},
		Clients:         2,
		RateLimit:       500,
		WorkloadThreads: 2,
		BatchSize:       5,
		SendDuration:    100 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
		Repetitions:     2,
		NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Expected.Mean == 0 {
			t.Fatalf("%s sent nothing", r.Benchmark)
		}
	}
	if len(drivers) != 2 {
		t.Fatalf("%d drivers provisioned, want one per repetition", len(drivers))
	}
	for rep, d := range drivers {
		for i, tx := range d.submitted {
			if tx.Num != uint64(i+1) {
				t.Fatalf("repetition %d: submission %d carries number %d, want %d", rep, i, tx.Num, i+1)
			}
		}
		for _, b := range d.batches {
			for j, tx := range b.Txs {
				if tx.Num != b.Txs[0].Num+uint64(j) {
					t.Fatalf("repetition %d: batch member %d is number %d, want %d", rep, j, tx.Num, b.Txs[0].Num+uint64(j))
				}
			}
		}
	}
}

// TestClientDropsEventsOutsideItsPhase: an event counts only for a number
// its phase gave out and has not yet counted, and only until the client
// detaches. An earlier phase's number, a number no phase gave out, a second
// event for one number and an event after detach all leave the tally and the
// per-thread counts as they were.
func TestClientDropsEventsOutsideItsPhase(t *testing.T) {
	clk := clock.NewAutoVirtual()
	cfg := RunConfig{RateLimit: 100, WorkloadThreads: 2}
	cfg.fill()
	phase := func(first uint64) *Client {
		return newClient(&cfg, clk, newFakeDriver(), newTally(nil), newInflightTable(first, 0), 0, 0, BenchDoNothing, nil, nil)
	}
	earlier := phase(1)
	old := earlier.track(clk.Now(), 1, 0)
	earlier.detach()

	c := phase(2)
	num := c.track(clk.Now(), 3, 1)
	late := c.track(clk.Now(), 1, 0)
	if old != 1 || num != 2 || late != 3 {
		t.Fatalf("numbers %d, %d, %d: want 1 in the first phase, then 2 and 3 in the second", old, num, late)
	}
	clk.Sleep(time.Second)
	received := func() (int, uint64) {
		var perThread uint64
		for _, n := range c.ReceivedCounts() {
			perThread += n
		}
		return c.tally.receivedOps, perThread
	}
	drop := func(what string, n uint64) {
		t.Helper()
		ops, perThread := received()
		c.onEvent(systems.Event{Num: n, ValidOK: true})
		if o, p := received(); o != ops || p != perThread {
			t.Fatalf("%s (number %d) was counted: tally %d → %d, per-thread %d → %d", what, n, ops, o, perThread, p)
		}
	}
	drop("an earlier phase's event", old)
	drop("an unnumbered event", 0)
	drop("an event numbered in no phase", 99)
	c.onEvent(systems.Event{Num: num, ValidOK: true})
	if ops, perThread := received(); ops != 3 || perThread != 3 || c.ReceivedCounts()[1] != 3 {
		t.Fatalf("the phase's own event counted %d payloads (%d per thread, %v), want 3 on thread 1", ops, perThread, c.ReceivedCounts())
	}
	drop("a second event for one number", num)
	c.detach()
	drop("an event after detach", late)
	if res := c.tally.result(); res.ExpectedNoT != 4 || res.ReceivedNoT != 3 || res.ValidNoT != 3 {
		t.Fatalf("NoT received %d, valid %d of %d expected; want 3, 3 of 4", res.ReceivedNoT, res.ValidNoT, res.ExpectedNoT)
	}
}
