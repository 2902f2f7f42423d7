package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/consensus"
	"github.com/coconut-bench/coconut/internal/consensus/bftcore"
	"github.com/coconut-bench/coconut/internal/consensus/raft"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/statestore"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/wal"
	"github.com/coconut-bench/coconut/internal/workload"
)

// A probe times a loop of public calls into one layer with workload-shaped
// inputs and reports the per-operation cost. Every probe asserts its own
// postcondition, so a probe that stops exercising its layer fails instead
// of reading fast.
type probe struct {
	name string
	run  func(seed int64) (map[string]float64, error)
}

// probes lists the layer probes in ledger order; together they report the
// 23 probe metrics of the catalogue.
var probes = []probe{
	{"clock.handoff", probeClockHandoff},
	{"clock.timer_jump", probeClockTimerJump},
	{"network.send_deliver", probeNetworkSendDeliver},
	{"network.broadcast32", probeNetworkBroadcast32},
	{"consensus.bftcore.n4", func(int64) (map[string]float64, error) { return probeBFTCore(4, 200) }},
	{"consensus.bftcore.n16", func(int64) (map[string]float64, error) { return probeBFTCore(16, 40) }},
	{"consensus.raft.n3", probeRaft},
	{"wal.append_replay", probeWAL},
	{"systems.hub_commit.n4", func(int64) (map[string]float64, error) { return probeHubCommit(4, 50000) }},
	{"systems.hub_commit.n32", func(int64) (map[string]float64, error) { return probeHubCommit(32, 8000) }},
	{"systems.gate_commit", probeGateCommit},
	{"crypto.sign_verify", probeSignVerify},
	{"crypto.tx_digest", probeTxDigest},
	{"chain.block_seal", probeBlockSeal},
	{"statestore.rwset_cycle", probeRWSetCycle},
	{"iel.execute", probeIELExecute},
	{"workload.next_op", probeWorkloadNextOp},
	{"coconut.observe", probeObserve},
	{"mempool.add_take", probeMempool},
}

// perOp converts an elapsed wall time into a per-operation cost in the
// given unit (time.Nanosecond or time.Microsecond).
func perOp(d time.Duration, ops int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(ops)
}

// onClock runs f as the sole registered actor of a fresh auto-advancing
// virtual clock — the regime every timed repetition runs under — and waits
// for it to return.
func onClock(name string, f func(av *clock.AutoVirtual)) {
	av := clock.NewAutoVirtual()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h := clock.Register(av, name)
		defer h.Close()
		f(av)
	}()
	<-done
}

// probeClockHandoff ping-pongs a token between two registered actors
// through Mailbox.Send / Await: the dense hand-off the saturation workload
// is made of.
func probeClockHandoff(int64) (map[string]float64, error) {
	const rounds = 20000
	av := clock.NewAutoVirtual()
	ping := clock.NewMailbox[int](av, 1)
	pong := clock.NewMailbox[int](av, 1)
	var last, got int
	var m0, m1 runtime.MemStats
	var wg sync.WaitGroup
	wg.Add(2)
	runtime.ReadMemStats(&m0)
	t0 := clock.Walltime()
	clock.Fork(av, 2)
	go func() {
		defer wg.Done()
		h := clock.RegisterForked(av, "ping")
		defer h.Close()
		for i := 0; i < rounds; i++ {
			ping.Send(i, nil)
			if _, v, ok := clock.Await(av, pong); ok {
				last = v.(int)
			}
		}
	}()
	go func() {
		defer wg.Done()
		h := clock.RegisterForked(av, "pong")
		defer h.Close()
		for i := 0; i < rounds; i++ {
			if _, v, ok := clock.Await(av, ping); ok {
				got++
				pong.Send(v.(int), nil)
			}
		}
	}()
	wg.Wait()
	d := clock.Walltime().Sub(t0)
	runtime.ReadMemStats(&m1)
	if got != rounds || last != rounds-1 {
		return nil, fmt.Errorf("ping-pong delivered %d of %d, last echo %d", got, rounds, last)
	}
	return map[string]float64{
		"clock.handoff_ns":     perOp(d, 2*rounds, time.Nanosecond),
		"clock.handoff_allocs": float64(m1.Mallocs-m0.Mallocs) / (2 * rounds),
	}, nil
}

// probeClockTimerJump has one actor sleep repeatedly: every Sleep parks the
// only actor, so the clock jumps to the deadline — the sparse time jumps the
// RL=200 cells of chaos-wal are made of.
func probeClockTimerJump(int64) (map[string]float64, error) {
	const jumps = 20000
	var d, advanced time.Duration
	onClock("sleeper", func(av *clock.AutoVirtual) {
		t0 := clock.Walltime()
		for i := 0; i < jumps; i++ {
			av.Sleep(time.Millisecond)
		}
		d = clock.Walltime().Sub(t0)
		advanced = av.Now().Sub(clock.SimEpoch)
	})
	if advanced != jumps*time.Millisecond {
		return nil, fmt.Errorf("clock advanced %v over %d 1ms sleeps", advanced, jumps)
	}
	return map[string]float64{"clock.timer_jump_ns": perOp(d, jumps, time.Nanosecond)}, nil
}

// endpointNames returns n transport endpoint names.
func endpointNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + "-" + strconv.Itoa(i)
	}
	return names
}

// probeNetworkSendDeliver sends point-to-point messages between four
// zero-latency endpoints in bursts, yielding after each burst so the
// delivery workers drain it.
func probeNetworkSendDeliver(int64) (map[string]float64, error) {
	const bursts, burst = 400, 32
	names := endpointNames("ep", 4)
	var d time.Duration
	var sent, delivered uint64
	var sendErr error
	onClock("sender", func(av *clock.AutoVirtual) {
		tr := network.NewTransport(av, network.ZeroLatency{})
		defer tr.Stop()
		for _, n := range names {
			tr.Register(n, func(network.Message) {})
		}
		t0 := clock.Walltime()
		for b := 0; b < bursts; b++ {
			for i := 0; i < burst; i++ {
				if err := tr.Send(names[i%4], names[(i+1)%4], "probe", i); err != nil {
					sendErr = err
					return
				}
			}
			av.Sleep(time.Microsecond)
		}
		d = clock.Walltime().Sub(t0)
		sent, delivered, _ = tr.Stats()
	})
	if sendErr != nil {
		return nil, sendErr
	}
	if sent != bursts*burst || delivered != sent {
		return nil, fmt.Errorf("sent %d, delivered %d, want %d", sent, delivered, bursts*burst)
	}
	return map[string]float64{"network.send_deliver_ns": perOp(d, bursts*burst, time.Nanosecond)}, nil
}

// probeNetworkBroadcast32 broadcasts from one of 32 endpoints under the
// paper's emulated latency, the n-squared fan-out of the scale-out
// workload. The probe stops its own transport.
func probeNetworkBroadcast32(seed int64) (map[string]float64, error) {
	const rounds, n = 300, 32
	names := endpointNames("ep", n)
	var d time.Duration
	var fanout int
	var delivered uint64
	onClock("broadcaster", func(av *clock.AutoVirtual) {
		tr := network.NewTransport(av, network.NewNormalLatency(120*time.Microsecond, 20*time.Microsecond, seed))
		defer tr.Stop()
		for _, name := range names {
			tr.Register(name, func(network.Message) {})
		}
		t0 := clock.Walltime()
		for r := 0; r < rounds; r++ {
			fanout += tr.Broadcast(names[r%n], "probe", r)
			av.Sleep(time.Millisecond)
		}
		d = clock.Walltime().Sub(t0)
		_, delivered, _ = tr.Stats()
	})
	if fanout != rounds*(n-1) || delivered != uint64(fanout) {
		return nil, fmt.Errorf("broadcast fan-out %d, delivered %d, want %d", fanout, delivered, rounds*(n-1))
	}
	return map[string]float64{"network.broadcast32_ns": perOp(d, fanout, time.Nanosecond)}, nil
}

// decisionCounter counts decided slots per node.
type decisionCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *decisionCounter) recorder(id string) consensus.DecideFunc {
	return func(consensus.Decision) {
		c.mu.Lock()
		c.n[id]++
		c.mu.Unlock()
	}
}

// all reports whether every one of the peers has decided want slots.
func (c *decisionCounter) all(peers []string, want int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range peers {
		if c.n[p] != want {
			return false
		}
	}
	return true
}

// awaitDecisions yields simulated time until every peer has decided want
// slots, giving up after a bounded number of yields.
func awaitDecisions(av *clock.AutoVirtual, dc *decisionCounter, peers []string, want int) bool {
	for i := 0; i < 10000; i++ {
		if dc.all(peers, want) {
			return true
		}
		av.Sleep(100 * time.Microsecond)
	}
	return false
}

// probeBFTCore decides blocks one at a time on an n-validator three-phase
// cluster over a zero-latency transport: the vote traffic Quorum's cells
// are made of.
func probeBFTCore(n, blocks int) (map[string]float64, error) {
	peers := endpointNames("validator", n)
	dc := &decisionCounter{n: make(map[string]int)}
	var d time.Duration
	var err error
	onClock("bft-driver", func(av *clock.AutoVirtual) {
		tr := network.NewTransport(av, network.ZeroLatency{})
		defer tr.Stop()
		cores := make([]*bftcore.Core, n)
		for i, id := range peers {
			cores[i] = bftcore.New(bftcore.Config{
				ID: id, Peers: peers, Transport: tr, Clock: av,
				OnDecide: dc.recorder(id), Proposer: bftcore.RoundRobinByHeight,
				RoundTimeout: time.Second, MsgPrefix: "probe",
			})
			if err = cores[i].Start(); err != nil {
				return
			}
		}
		defer func() {
			for _, c := range cores {
				c.Stop()
			}
		}()
		t0 := clock.Walltime()
		for b := 1; b <= blocks; b++ {
			for _, c := range cores {
				if c.IsProposer() {
					err = c.Submit("block-" + strconv.Itoa(b))
					break
				}
			}
			if err != nil {
				return
			}
			if !awaitDecisions(av, dc, peers, b) {
				err = fmt.Errorf("bftcore n=%d: block %d not decided on every node", n, b)
				return
			}
		}
		d = clock.Walltime().Sub(t0)
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"consensus.bftcore_decide_us.n" + strconv.Itoa(n): perOp(d, blocks, time.Microsecond)}, nil
}

// probeRaft commits entries one at a time through an elected three-node
// Raft leader (Fabric's ordering service).
func probeRaft(seed int64) (map[string]float64, error) {
	const entries = 200
	peers := endpointNames("orderer", 3)
	dc := &decisionCounter{n: make(map[string]int)}
	var d time.Duration
	var err error
	onClock("raft-driver", func(av *clock.AutoVirtual) {
		tr := network.NewTransport(av, network.ZeroLatency{})
		defer tr.Stop()
		nodes := make([]*raft.Node, len(peers))
		for i, id := range peers {
			nodes[i] = raft.New(raft.Config{
				ID: id, Peers: peers, Transport: tr, Clock: av,
				OnDecide: dc.recorder(id), Seed: seed + int64(i),
			})
			if err = nodes[i].Start(); err != nil {
				return
			}
		}
		defer func() {
			for _, n := range nodes {
				n.Stop()
			}
		}()
		var leader *raft.Node
		for i := 0; i < 1000 && leader == nil; i++ {
			av.Sleep(10 * time.Millisecond)
			for _, n := range nodes {
				if n.Role() == raft.Leader {
					leader = n
				}
			}
		}
		if leader == nil {
			err = fmt.Errorf("raft: no leader elected")
			return
		}
		t0 := clock.Walltime()
		for e := 1; e <= entries; e++ {
			if err = leader.Submit("entry-" + strconv.Itoa(e)); err != nil {
				return
			}
			if !awaitDecisions(av, dc, peers, e) {
				err = fmt.Errorf("raft: entry %d not committed on every node", e)
				return
			}
		}
		d = clock.Walltime().Sub(t0)
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"consensus.raft_decide_us.n3": perOp(d, entries, time.Microsecond)}, nil
}

// probeWAL appends under both fsync policies the chaos-wal workload uses,
// then replays the always-synced log.
func probeWAL(int64) (map[string]float64, error) {
	const records = 20000
	clk := clock.NewAutoVirtual()
	appendAll := func(l *wal.Log) time.Duration {
		t0 := clock.Walltime()
		for i := 0; i < records; i++ {
			l.Append(1 + i%8)
		}
		return clock.Walltime().Sub(t0)
	}
	always := wal.New("probe-always", wal.Options{Fsync: wal.FsyncAlways}, clk)
	dAlways := appendAll(always)
	batch := wal.New("probe-batch", wal.Options{Fsync: wal.FsyncBatch}, clk)
	dBatch := appendAll(batch)

	t0 := clock.Walltime()
	rr := always.Replay()
	dReplay := clock.Walltime().Sub(t0)
	st := always.Stats()
	if rr.Records != records || rr.Lost != 0 || st.AppendedRecords != records {
		return nil, fmt.Errorf("wal: appended %d, replayed %d, lost %d, want %d", st.AppendedRecords, rr.Records, rr.Lost, records)
	}
	if bs := batch.Stats(); bs.AppendedRecords != records || bs.Fsyncs >= st.Fsyncs {
		return nil, fmt.Errorf("wal: batch policy appended %d with %d fsyncs (always: %d)", bs.AppendedRecords, bs.Fsyncs, st.Fsyncs)
	}
	return map[string]float64{
		"wal.append_sync_ns":          perOp(dAlways, records, time.Nanosecond),
		"wal.append_batch_ns":         perOp(dBatch, records, time.Nanosecond),
		"wal.replay_ns_per_record":    perOp(dReplay, records, time.Nanosecond),
		"wal.append_bytes_per_record": float64(st.AppendedBytes) / records,
	}, nil
}

// probeHubCommit reports every transaction from every one of n nodes until
// the hub emits it; the cost is per node report.
func probeHubCommit(n, txs int) (map[string]float64, error) {
	hub := systems.NewHub(n)
	emitted := 0
	hub.Subscribe("client", func(systems.Event) { emitted++ })
	nodes := make([]*systems.HubNode, n)
	for i, name := range endpointNames("node", n) {
		nodes[i] = hub.Node(name)
	}
	ids := make([]crypto.Hash, txs)
	for i := range ids {
		ids[i] = crypto.TxID("client", uint64(i), nil)
	}
	at := clock.SimEpoch
	t0 := clock.Walltime()
	for _, id := range ids {
		ev := systems.Event{TxID: id, Client: "client", Committed: true, ValidOK: true, OpCount: 1}
		for _, node := range nodes {
			node.Committed(ev, at)
		}
	}
	d := clock.Walltime().Sub(t0)
	if emitted != txs || hub.EmittedCount() != txs || hub.PendingCount() != 0 {
		return nil, fmt.Errorf("hub n=%d: emitted %d of %d, %d pending", n, emitted, txs, hub.PendingCount())
	}
	return map[string]float64{"systems.hub_commit_ns.n" + strconv.Itoa(n): perOp(d, txs*n, time.Nanosecond)}, nil
}

// probeGateCommit commits through a DurableGate with a batch-fsync log
// mounted; the modeled append and fsync latency is charged on the virtual
// clock, so the probe includes the time jump each commit costs.
func probeGateCommit(int64) (map[string]float64, error) {
	const commits = 10000
	var d time.Duration
	applied := 0
	var appended uint64
	onClock("committer", func(av *clock.AutoVirtual) {
		var gate systems.DurableGate
		log := wal.New("probe-gate", wal.Options{Fsync: wal.FsyncBatch}, av)
		gate.Enable(av, log)
		t0 := clock.Walltime()
		for i := 0; i < commits; i++ {
			gate.Commit(1+i%8, func() { applied++ })
		}
		d = clock.Walltime().Sub(t0)
		appended = log.Stats().AppendedRecords
	})
	if applied != commits || appended != commits {
		return nil, fmt.Errorf("gate: applied %d, appended %d, want %d", applied, appended, commits)
	}
	return map[string]float64{"systems.gate_commit_ns": perOp(d, commits, time.Nanosecond)}, nil
}

// probeSignVerify signs and verifies a transaction digest.
func probeSignVerify(int64) (map[string]float64, error) {
	const ops = 1000
	id := crypto.NewIdentity("probe-client")
	t0 := clock.Walltime()
	for i := 0; i < ops; i++ {
		digest := crypto.TxID("probe-client", uint64(i), nil)
		if !id.Verify(digest.Bytes(), id.Sign(digest.Bytes())) {
			return nil, fmt.Errorf("crypto: signature %d did not verify", i)
		}
	}
	d := clock.Walltime().Sub(t0)
	return map[string]float64{"crypto.sign_verify_us": perOp(d, ops, time.Microsecond)}, nil
}

// probeTxDigest builds single-operation KeyValue transactions; the
// constructor computes the content digest that becomes the ID.
func probeTxDigest(int64) (map[string]float64, error) {
	const ops = 50000
	var tx *chain.Transaction
	t0 := clock.Walltime()
	for i := 0; i < ops; i++ {
		tx = chain.NewSingleOp("probe-client", uint64(i), iel.KeyValueName, iel.FnSet, "key-"+strconv.Itoa(i), "value")
	}
	d := clock.Walltime().Sub(t0)
	if err := tx.Verify(); err != nil {
		return nil, err
	}
	return map[string]float64{"crypto.tx_digest_ns": perOp(d, ops, time.Nanosecond)}, nil
}

// probeBlockSeal builds and seals 100-transaction blocks on a chain.
func probeBlockSeal(int64) (map[string]float64, error) {
	const blocks, perBlock = 300, 100
	txs := make([]*chain.Transaction, perBlock)
	for i := range txs {
		txs[i] = chain.NewSingleOp("probe-client", uint64(i), iel.DoNothingName, iel.FnDoNothing)
	}
	prev := chain.Genesis("probe")
	t0 := clock.Walltime()
	for i := 0; i < blocks; i++ {
		b := chain.NewBlock(prev, "proposer", clock.SimEpoch, txs)
		b.Seal()
		if err := b.VerifyLink(prev); err != nil {
			return nil, err
		}
		prev = b
	}
	d := clock.Walltime().Sub(t0)
	return map[string]float64{"chain.block_seal_us.tx100": perOp(d, blocks, time.Microsecond)}, nil
}

// probeRWSetCycle runs Fabric's execute-order-validate cycle on one key at
// a time: record a read and a write, validate, commit.
func probeRWSetCycle(int64) (map[string]float64, error) {
	const cycles, keys = 50000, 64
	store := statestore.NewKVStore()
	t0 := clock.Walltime()
	for i := 0; i < cycles; i++ {
		key := workload.SharedKVKey(uint64(i % keys))
		rw := statestore.NewRWSet()
		rw.RecordRead(key, store)
		rw.RecordWrite(key, "value")
		if err := rw.Validate(store); err != nil {
			return nil, fmt.Errorf("rwset cycle %d: %w", i, err)
		}
		rw.Commit(store, statestore.Version{BlockNum: uint64(i + 1)})
	}
	d := clock.Walltime().Sub(t0)
	if store.Len() != keys {
		return nil, fmt.Errorf("rwset: store holds %d keys, want %d", store.Len(), keys)
	}
	return map[string]float64{"statestore.rwset_cycle_ns": perOp(d, cycles, time.Nanosecond)}, nil
}

// probeIELExecute executes BankingApp SendPayment between existing
// accounts.
func probeIELExecute(int64) (map[string]float64, error) {
	const ops, accounts = 50000, 64
	state := iel.KVState{}
	for i := 0; i < accounts; i++ {
		create := chain.Operation{IEL: iel.BankingAppName, Function: iel.FnCreateAccount,
			Args: []string{workload.SharedAccountID(uint64(i)), "1000000", "0"}}
		if err := iel.Execute(create, state); err != nil {
			return nil, err
		}
	}
	pay := make([]chain.Operation, accounts)
	for i := range pay {
		pay[i] = chain.Operation{IEL: iel.BankingAppName, Function: iel.FnSendPayment,
			Args: []string{workload.SharedAccountID(uint64(i)), workload.SharedAccountID(uint64((i + 1) % accounts)), "1"}}
	}
	t0 := clock.Walltime()
	for i := 0; i < ops; i++ {
		if err := iel.Execute(pay[i%accounts], state); err != nil {
			return nil, fmt.Errorf("send-payment %d: %w", i, err)
		}
	}
	d := clock.Walltime().Sub(t0)
	return map[string]float64{"iel.execute_ns.send-payment": perOp(d, ops, time.Nanosecond)}, nil
}

// probeWorkloadNextOp draws operations from the Zipfian SmallBank generator
// chaos-wal's first scenario uses.
func probeWorkloadNextOp(seed int64) (map[string]float64, error) {
	const ops = 100000
	spec, err := workload.ParseSpec("smallbank", "zipfian", 64, seed)
	if err != nil {
		return nil, err
	}
	gen := spec.Generator(workload.Placement{Client: 0, Clients: 4, Thread: 0, Threads: 4})
	banking := 0
	t0 := clock.Walltime()
	for i := uint64(0); i < ops; i++ {
		if gen(i).IEL == iel.BankingAppName {
			banking++
		}
	}
	d := clock.Walltime().Sub(t0)
	if banking != ops {
		return nil, fmt.Errorf("workload: %d of %d generated operations target the banking layer", banking, ops)
	}
	return map[string]float64{"workload.next_op_ns.smallbank-zipf": perOp(d, ops, time.Nanosecond)}, nil
}

// probeObserve folds confirmations into the client-side metrics the way
// coconut.Client does on every event: resolve the stage marks into
// durations, then feed the latency histogram and the per-stage metrics.
func probeObserve(int64) (map[string]float64, error) {
	const ops = 100000
	hist := coconut.NewLatencyHist()
	var stages coconut.StageMetrics
	start := clock.SimEpoch
	t0 := clock.Walltime()
	for i := 0; i < ops; i++ {
		var st chain.StageTrace
		for s := 0; s < chain.NumStages; s++ {
			st.Mark(chain.Stage(s), start.Add(time.Duration(s+1)*time.Millisecond))
		}
		end := start.Add(time.Duration(chain.NumStages+1+i%16) * time.Millisecond)
		var buf [chain.NumStages]chain.StageSpan
		for _, sp := range st.Durations(start, end, buf[:0]) {
			stages.Observe(sp.Stage, sp.Dur, 1)
		}
		hist.Observe(end.Sub(start))
	}
	d := clock.Walltime().Sub(t0)
	if hist.Count() != ops || len(stages.Summarize()) != chain.NumStages {
		return nil, fmt.Errorf("observe: histogram holds %d of %d, %d stages", hist.Count(), ops, len(stages.Summarize()))
	}
	return map[string]float64{"coconut.observe_ns": perOp(d, ops, time.Nanosecond)}, nil
}

// probeMempool admits transactions into a bounded pool and takes them out
// in block-sized batches.
func probeMempool(int64) (map[string]float64, error) {
	const rounds, batch = 2000, 64
	pool := mempool.NewBounded[*chain.Transaction](batch)
	tx := chain.NewSingleOp("probe-client", 0, iel.DoNothingName, iel.FnDoNothing)
	taken := 0
	t0 := clock.Walltime()
	for r := 0; r < rounds; r++ {
		for i := 0; i < batch; i++ {
			if err := pool.Add(tx); err != nil {
				return nil, err
			}
		}
		taken += len(pool.Take(batch))
	}
	d := clock.Walltime().Sub(t0)
	if admitted, rejected := pool.Stats(); taken != rounds*batch || admitted != uint64(taken) || rejected != 0 || pool.Len() != 0 {
		return nil, fmt.Errorf("mempool: admitted %d, rejected %d, took %d, %d left", admitted, rejected, taken, pool.Len())
	}
	return map[string]float64{"mempool.add_take_ns": perOp(d, rounds*batch, time.Nanosecond)}, nil
}
