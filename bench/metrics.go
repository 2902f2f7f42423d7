package main

import (
	"math"
	"strconv"

	"github.com/coconut-bench/coconut/internal/coconut"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef describes one metric of the catalogue. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which the metric may
	// worsen before -compare calls it a regression; AbsBound is the same
	// slack in the metric's own unit, and the larger of the two applies.
	// Both zero means the metric is not gated.
	Bound    float64
	AbsBound float64
	// Fingerprint marks a model output that repeats exactly under virtual
	// time: a harness-only change must leave it bit-identical.
	Fingerprint bool
}

// endToEnd lists the host-time metrics every workload reports with tracing
// off. These are the gated metrics of BENCHMARK.json. The timing bounds are
// as wide as the contract allows because the sandbox's neighbours slow the
// simulator by up to half in spells (README, finding 6), and how many of
// them a run meets is not the benchmark's to choose; the allocation counts
// repeat to a tenth of a percent and keep a 2 % bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tx_per_wall_s", Unit: "tx/s", Better: "higher", Bound: 0.25},
	{Name: "slowest_cell_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_tx", Unit: "1/tx", Better: "lower", Bound: 0.02},
	{Name: "bytes_per_tx", Unit: "B/tx", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// layers are the modules under internal/ a profile sample is attributed to,
// in ledger order; runtime_other collects samples with no in-module frame.
var layers = []string{
	"clock", "network", "consensus", "systems", "wal", "coconut", "workload", "statestore",
	"iel", "crypto", "chain", "mempool", "faults", "experiments", "runtime_other",
}

// slug pairs a metric-name suffix with the model's name for the same thing.
type slug struct{ Slug, Name string }

// slugOf returns the suffix for a model name, "" when it has none.
func slugOf(slugs []slug, name string) string {
	for _, s := range slugs {
		if s.Name == name {
			return s.Slug
		}
	}
	return ""
}

var systemSlugs = []slug{
	{"corda-os", "Corda OS"}, {"corda-ent", "Corda Enterprise"}, {"bitshares", "BitShares"},
	{"fabric", "Fabric"}, {"quorum", "Quorum"}, {"sawtooth", "Sawtooth"}, {"diem", "Diem"},
}

var benchSlugs = []slug{
	{"donothing", "DoNothing"}, {"kv-set", "KeyValue-Set"}, {"kv-get", "KeyValue-Get"},
	{"create-account", "BankingApp-CreateAccount"}, {"send-payment", "BankingApp-SendPayment"},
	{"balance", "BankingApp-Balance"},
}

var (
	chaosScenarios = []string{"contention-under-chaos", "recovery-cost"}
	scaleOutNodes  = []int{4, 8, 16, 32}
	stageNames     = []string{"submit", "queue", "consensus", "execute", "validate", "commit"}
)

// fidelity lists the two paper-agreement metrics. They are read from
// paper-grid's rows, repeat exactly at a fixed seed, and are gated by
// -compare with absolute bounds; every other workload reports them as 0.
var fidelity = []metricDef{
	{Name: "paper_mtps_err_pct", Unit: "%", Better: "lower", AbsBound: 1.0, Fingerprint: true},
	{Name: "paper_rank_tau", Unit: "tau", Better: "higher", AbsBound: 0.02, Fingerprint: true},
}

// perLayer builds the per-layer catalogue: the traced repetition's profile
// fold, cell spans and runtime counters, the model fingerprints, the layer
// probes, and the two fidelity metrics. A metric that does not apply to a
// workload is reported as 0 there.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	fingerprint := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, Fingerprint: true})
	}

	for _, l := range layers {
		add(l+".cpu_pct", "%", "lower")
	}
	for _, l := range layers {
		add(l+".alloc_pct", "%", "lower")
	}

	for _, s := range systemSlugs {
		add("experiments.cell_wall_s."+s.Slug, "s", "lower")
	}
	for _, b := range benchSlugs {
		add("experiments.bench_wall_s."+b.Slug, "s", "lower")
	}
	for _, sc := range chaosScenarios {
		add("experiments.scenario_wall_s."+sc, "s", "lower")
	}
	for _, n := range scaleOutNodes {
		add("experiments.nodes_wall_s.n"+strconv.Itoa(n), "s", "lower")
	}
	add("experiments.sim_speedup", "ratio", "higher")

	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_cpu_pct", "%", "lower")
	add("runtime.trace_overhead_pct", "%", "lower")
	add("runtime.mp_handoff_ratio", "ratio", "lower")

	fingerprint("coconut.mtps_sum", "tx/s", "higher")
	fingerprint("coconut.mfls_mean_s", "s", "lower")
	fingerprint("coconut.received_tx", "count", "higher")
	fingerprint("coconut.valid_tx", "count", "higher")
	fingerprint("coconut.abort_pct", "%", "lower")
	for _, st := range stageNames {
		fingerprint("coconut.stage_ms."+st, "ms", "lower")
	}
	for _, g := range coconut.GaugeNames {
		fingerprint("coconut.gauge_p95."+g, "count", "lower")
	}
	fingerprint("coconut.availability_pct", "%", "higher")
	fingerprint("coconut.recovery_s", "s", "lower")
	fingerprint("wal.log_bytes", "B", "lower")
	fingerprint("wal.replayed_records", "count", "lower")
	fingerprint("wal.replay_s", "s", "lower")
	fingerprint("wal.refetch_s", "s", "lower")
	for _, s := range systemSlugs {
		fingerprint("systems.mtps."+s.Slug, "tx/s", "higher")
	}

	add("clock.handoff_ns", "ns", "lower")
	add("clock.handoff_allocs", "count", "lower")
	add("clock.timer_jump_ns", "ns", "lower")
	add("network.send_deliver_ns", "ns", "lower")
	add("network.broadcast32_ns", "ns", "lower")
	add("consensus.bftcore_decide_us.n4", "us", "lower")
	add("consensus.bftcore_decide_us.n16", "us", "lower")
	add("consensus.raft_decide_us.n3", "us", "lower")
	add("wal.append_sync_ns", "ns", "lower")
	add("wal.append_batch_ns", "ns", "lower")
	add("wal.replay_ns_per_record", "ns", "lower")
	add("wal.append_bytes_per_record", "B", "lower")
	add("systems.hub_commit_ns.n4", "ns", "lower")
	add("systems.hub_commit_ns.n32", "ns", "lower")
	add("systems.gate_commit_ns", "ns", "lower")
	add("crypto.sign_verify_us", "us", "lower")
	add("crypto.tx_digest_ns", "ns", "lower")
	add("chain.block_seal_us.tx100", "us", "lower")
	add("statestore.rwset_cycle_ns", "ns", "lower")
	add("iel.execute_ns.send-payment", "ns", "lower")
	add("workload.next_op_ns.smallbank-zipf", "ns", "lower")
	add("coconut.observe_ns", "ns", "lower")
	add("mempool.add_take_ns", "ns", "lower")

	return append(defs, fidelity...)
}

// metricSet collects a report's values against a catalogue: every catalogue
// name starts at 0 with its unit, so a workload the metric does not apply
// to still reports it.
type metricSet map[string]Metric

func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.Name] = Metric{Unit: d.Unit}
	}
	return ms
}

// set records a value; a name outside the catalogue is a programming error.
// A ratio over an empty interval is recorded as 0, which JSON can carry.
func (ms metricSet) set(name string, v float64) {
	m, ok := ms[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	ms[name] = m
}
