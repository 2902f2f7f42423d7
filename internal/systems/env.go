package systems

import (
	"strconv"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/wal"
)

// Env is what every driver is built from besides the paper's parameters:
// the run's network size, time scale, link latency, clock, durability,
// tracing and seed. Each driver's constructor takes an Env and a Params and
// derives its whole calibration from them; nothing else configures it.
//
// Scaling contract. The paper's runs last minutes and its block intervals
// seconds; a simulated run shrinks every paper duration by Scale (Paper)
// and every block-size-like count by the same factor (Count), while rate
// limiters stay unscaled. That keeps offered load against block capacity
// and finalization latency against block interval where the paper had
// them. It does not make MTPS scale-free: the service times below are
// real simulated time at every scale, so cells bound by them move when
// Scale does (14 of 42 Figure 3 cells change by more than 10% between
// 0.01 and 0.1). The model is calibrated at Scale 0.01.
//
// The unscaled service times, and the clamps that hold a scaled count or
// duration where the calibration needs it, are each written once, in the
// driver that owns them:
//   - Sawtooth: block publishing delay of at least 25 ms plus 10 ms per
//     batch member; 8-batch admission queue; one batch per block.
//   - Diem: 150 ms rounds; 650 ms validation stall every 1 s; 48-deep
//     mempool; max_block_size clamped to at least 6.
//   - Corda OS: 180 ms per signing party, 20 ms per vault state scanned,
//     8-state read budget; Corda Enterprise: 500 ms signing hop, 30 ms per
//     vault state. Both: 10 s flow timeout, 4096-flow node queue.
//   - Quorum: block capacity 820 tx/s × block period, clamped to at least
//     one transaction; livelock backlog 2560 × Scale, clamped to at least 2.
//   - BitShares: conflict window RL × BI / Actions transactions, clamped to
//     at least 2.
//   - Fabric: 20000-envelope orderer queues.
type Env struct {
	// Nodes is the network size (the paper's default is 4).
	Nodes int
	// Scale shrinks paper durations and counts (Paper, Count).
	Scale float64
	// Latency models the per-hop delay between nodes.
	Latency network.LatencyModel
	// Clock is the time source every timer and modeled cost runs on.
	Clock *clock.AutoVirtual
	// WAL, when set, mounts a write-ahead log on every node's commit gate
	// (see DurableGate); nil runs the no-WAL hot path.
	WAL *wal.Options
	// Trace, when set, receives sampled spans: consensus rounds, WAL
	// appends/fsyncs and network hops.
	Trace *trace.Tracer
	// Seed drives the drivers' deterministic randomness.
	Seed int64
}

// Paper converts a paper duration in seconds into simulated time: ×Scale.
func (e Env) Paper(seconds float64) time.Duration {
	return time.Duration(seconds * e.Scale * float64(time.Second))
}

// Count shrinks a paper count (block sizes, backlogs) by Scale, flooring at
// one.
func (e Env) Count(n int) int {
	return max(int(float64(n)*e.Scale), 1)
}

// Params is the paper's parameter point for one cell, under the paper's
// labels: RL (total rate limiter across the four clients), MM (Fabric
// MaxMessageCount), BS (Diem max_block_size), BI (BitShares block_interval
// seconds), BP (Quorum istanbul.blockperiod seconds), PD (Sawtooth
// block_publishing_delay seconds), Actions (operations per transaction or
// transactions per batch). A zero field takes the system's default.
type Params struct {
	RL      int `json:"rl,omitempty"`
	MM      int `json:"mm,omitempty"`
	BS      int `json:"bs,omitempty"`
	BI      int `json:"bi,omitempty"`
	BP      int `json:"bp,omitempty"`
	PD      int `json:"pd,omitempty"`
	Actions int `json:"actions,omitempty"`
}

// Labels renders the parameter set for result rows.
func (p Params) Labels() map[string]string {
	out := map[string]string{"RL": strconv.Itoa(p.RL)}
	if p.MM > 0 {
		out["MM"] = strconv.Itoa(p.MM)
	}
	if p.BS > 0 {
		out["BS"] = strconv.Itoa(p.BS)
	}
	if p.BI > 0 {
		out["BI"] = strconv.Itoa(p.BI) + "s"
	}
	if p.BP > 0 {
		out["BP"] = strconv.Itoa(p.BP) + "s"
	}
	if p.PD > 0 {
		out["PD"] = strconv.Itoa(p.PD) + "s"
	}
	if p.Actions > 0 {
		out["Actions"] = strconv.Itoa(p.Actions)
	}
	return out
}
