// Package coconut implements the COCONUT benchmarking framework from the
// paper (§3-§4): clients that generate rate-limited workloads against a
// blockchain system through the Blockchain Access Layer, collect
// finalization notifications end to end, and compute the evaluation metrics
// — MTPS (formula 2), MFLS (formula 1), Duration (formula 3), and the
// number-of-transactions accounting — with SD, SEM, and 95% confidence
// intervals across repetitions.
package coconut

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
)

// LatencyHist is an online finalization-latency histogram with logarithmic
// buckets: histSubCount linear sub-buckets per power-of-two octave, giving
// a bounded relative error of 1/histSubCount (~3%) over the full duration
// range. Percentiles come from a bucket walk instead of sorting the full
// record set.
type LatencyHist struct {
	counts [histBuckets]uint64
	total  uint64
}

const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// histBuckets covers every non-negative int64 nanosecond duration:
	// values below histSubCount are exact, each further octave adds
	// histSubCount sub-buckets.
	histBuckets = (64 - histSubBits) * histSubCount
)

// histIndex maps a nanosecond value to its bucket.
func histIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return (shift+1)<<histSubBits | int((v>>shift)&(histSubCount-1))
}

// histValue returns the representative (midpoint) nanosecond value of a
// bucket.
func histValue(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	shift := idx>>histSubBits - 1
	low := (histSubCount + uint64(idx&(histSubCount-1))) << shift
	return low + (1<<shift)/2
}

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist { return &LatencyHist{} }

// Observe streams one latency sample into the histogram.
func (h *LatencyHist) Observe(d time.Duration) {
	h.ObserveN(d, 1)
}

// ObserveN streams n identical latency samples into the histogram. §4.5
// counts every payload as one transaction, so a multi-op transaction's
// finalization latency must weigh once per operation it carried.
func (h *LatencyHist) ObserveN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))] += n
	h.total += n
}

// Count reports the number of observations.
func (h *LatencyHist) Count() uint64 { return h.total }

// Merge folds other's observations into h.
func (h *LatencyHist) Merge(other *LatencyHist) {
	if other == nil {
		return
	}
	for i, n := range other.counts {
		h.counts[i] += n
	}
	h.total += other.total
}

// Quantile returns the latency at quantile q in [0, 1], accurate to the
// bucket's relative width. Zero observations yield zero.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	total := h.total
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen uint64
	for i, n := range h.counts {
		seen += n
		if seen >= target {
			return time.Duration(histValue(i))
		}
	}
	return 0
}

// StageMetrics accumulates ops-weighted per-stage pipeline latency: a
// sum/count pair per stage for the mean and a histogram per stage for
// percentiles.
type StageMetrics struct {
	sum  [chain.NumStages]int64 // nanoseconds, ops-weighted
	n    [chain.NumStages]int64 // ops carrying stage data
	hist [chain.NumStages]LatencyHist
}

// Observe folds one transaction's time in stage s, weighted by the ops the
// transaction carried (§4.5 per-payload accounting).
func (m *StageMetrics) Observe(s chain.Stage, d time.Duration, ops int) {
	if ops <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	m.sum[s] += int64(d) * int64(ops)
	m.n[s] += int64(ops)
	m.hist[s].ObserveN(d, uint64(ops))
}

// Merge folds other's per-stage observations into m.
func (m *StageMetrics) Merge(other *StageMetrics) {
	if other == nil {
		return
	}
	for i := 0; i < chain.NumStages; i++ {
		m.sum[i] += other.sum[i]
		m.n[i] += other.n[i]
		m.hist[i].Merge(&other.hist[i])
	}
}

// Empty reports whether no stage observation has been recorded.
func (m *StageMetrics) Empty() bool {
	for i := 0; i < chain.NumStages; i++ {
		if m.n[i] > 0 {
			return false
		}
	}
	return true
}

// Summarize renders the accumulated stage latencies as per-stage statistics
// in pipeline order, skipping stages that never recorded. Nil when empty.
func (m *StageMetrics) Summarize() []StageStat {
	var out []StageStat
	for i := 0; i < chain.NumStages; i++ {
		n := m.n[i]
		if n == 0 {
			continue
		}
		out = append(out, StageStat{
			Stage:   chain.Stage(i).String(),
			MeanSec: (time.Duration(m.sum[i]) / time.Duration(n)).Seconds(),
			P50Sec:  m.hist[i].Quantile(0.50).Seconds(),
			P95Sec:  m.hist[i].Quantile(0.95).Seconds(),
			Ops:     int(n),
		})
	}
	return out
}

// StageStat is one pipeline stage's ops-weighted latency summary within a
// repetition.
type StageStat struct {
	// Stage is the canonical stage name (chain.Stage.String order).
	Stage string
	// MeanSec is the ops-weighted mean time spent in the stage, in seconds.
	MeanSec float64
	// P50Sec and P95Sec are stage-latency percentiles in seconds.
	P50Sec float64
	P95Sec float64
	// Ops counts the received payloads that carried data for this stage.
	Ops int
}

// RepetitionResult holds the metrics of one benchmark execution across all
// clients.
type RepetitionResult struct {
	// TPS is transactions per second: received payloads / duration.
	TPS float64
	// FLS is the mean finalization latency in seconds over received
	// transactions.
	FLS float64
	// P50, P95, and P99 are finalization-latency percentiles in seconds,
	// from the streamed histogram (zero when nothing was received).
	P50 float64
	P95 float64
	P99 float64
	// DurationSec is t_lrtx - t_fstx (formula 3) in seconds.
	DurationSec float64
	// ReceivedNoT counts received payloads (operations).
	ReceivedNoT int
	// ExpectedNoT counts sent payloads.
	ExpectedNoT int
	// ValidNoT counts received payloads that committed valid. On systems
	// that append invalid transactions (Fabric's MVCC failures, the
	// order-execute systems' failed executions) it is smaller than
	// ReceivedNoT under contention.
	ValidNoT int
	// Goodput is valid-committed payloads per second — the throughput that
	// actually changed state. Goodput <= TPS, with equality only when no
	// received transaction aborted.
	Goodput float64
	// AbortRate is the fraction of received payloads that committed
	// invalid: (ReceivedNoT - ValidNoT) / ReceivedNoT.
	AbortRate float64
	// Conflicts breaks aborted payloads down by canonical abort code. It
	// folds together client-observed aborts (invalid committed
	// transactions) and driver-side sheds the clients never hear about
	// (BitShares exclusion, Sawtooth batch discard, Corda notary
	// rejections), which use disjoint code sets.
	Conflicts map[string]int
	// Availability is the windowed-timeline availability (1 for a fully
	// healthy run; see FaultMetrics). Zero when no timeline was collected.
	Availability float64
	// Recovered and RecoverySec report whether and how fast throughput
	// returned to steady state after the run's last heal event.
	Recovered   bool
	RecoverySec float64
	// GoodputRecovered and GoodputRecoverySec apply the same recovery rule
	// to valid-committed (goodput) counts; see FaultMetrics.
	GoodputRecovered   bool
	GoodputRecoverySec float64
	// Windows is the windowed throughput/latency timeline (nil when not
	// collected).
	Windows []WindowStat
	// Overflow aggregates confirmations that landed past the timeline's
	// horizon (the synthetic past-horizon bucket; zero-valued without a
	// timeline).
	Overflow WindowStat
	// Series is the windowed queue/resource gauge telemetry, one sample per
	// timeline window (nil when no timeline was collected or the driver does
	// not report queue depths).
	Series GaugeSeries
	// Stages is the per-stage pipeline latency breakdown in pipeline order
	// (nil when the driver did not instrument or transactions carried no marks).
	Stages []StageStat
	// WALEnabled reports whether the system ran with a write-ahead log; the
	// durability counters below are meaningful only when it is true.
	WALEnabled bool
	// ReplayedRecords and ReplaySec count WAL records replayed on restarts
	// during this repetition and the modeled time spent reading and
	// CRC-verifying them (distinct from RecoverySec, which measures the
	// throughput timeline's return to steady state).
	ReplayedRecords int
	ReplaySec       float64
	// RefetchedRecords and RefetchSec count records lost at the crash point
	// (unsynced tail, torn or corrupted suffix) that restarted nodes had to
	// re-fetch from survivors and re-persist.
	RefetchedRecords int
	RefetchSec       float64
	// LogRecords and LogBytes count every record appended to the WALs,
	// summed across nodes, from provisioning to the end of the phase: they
	// are cumulative over the repetition's earlier unit members and ignore
	// compaction, so they are not the live log footprint.
	LogRecords int
	LogBytes   int
}

// ClientSummary is one client's online aggregation of a benchmark phase:
// counters and a latency histogram streamed while events arrive. A
// repetition's metrics come from its clients' summaries alone.
type ClientSummary struct {
	// FirstSend is the client's t_fstx candidate (zero if nothing sent).
	FirstSend time.Time
	// LastRecv is the client's t_lrtx candidate (zero if nothing received).
	LastRecv time.Time
	// ExpectedNoT and ReceivedNoT count sent and confirmed payloads.
	ExpectedNoT int
	ReceivedNoT int
	// ValidNoT counts confirmed payloads whose validation succeeded.
	ValidNoT int
	// Aborts counts invalid-committed payloads by abort code.
	Aborts map[string]int
	// LatencySum and LatencyN accumulate ops-weighted finalization latency
	// for the MFLS mean (§4.5 counts every payload once, so a multi-op
	// transaction contributes its latency once per operation).
	LatencySum time.Duration
	LatencyN   int
	// Hist is the client's streamed latency histogram.
	Hist *LatencyHist
	// Stages is the client's streamed per-stage pipeline latency (nil when
	// the driver did not instrument).
	Stages *StageMetrics
}

// CombineSummaries folds per-client online summaries into one repetition's
// metrics, following §4.5: t_fstx is the first send across all clients,
// t_lrtx the last confirmation across all clients.
func CombineSummaries(sums []ClientSummary) RepetitionResult {
	var (
		first      time.Time
		last       time.Time
		received   int
		expected   int
		valid      int
		latencySum time.Duration
		latencyN   int
		conflicts  map[string]int
	)
	hist := NewLatencyHist()
	stages := &StageMetrics{}
	for _, s := range sums {
		expected += s.ExpectedNoT
		received += s.ReceivedNoT
		valid += s.ValidNoT
		stages.Merge(s.Stages)
		for code, n := range s.Aborts {
			if conflicts == nil {
				conflicts = make(map[string]int)
			}
			conflicts[code] += n
		}
		if !s.FirstSend.IsZero() && (first.IsZero() || s.FirstSend.Before(first)) {
			first = s.FirstSend
		}
		if s.LastRecv.After(last) {
			last = s.LastRecv
		}
		latencySum += s.LatencySum
		latencyN += s.LatencyN
		hist.Merge(s.Hist)
	}
	res := RepetitionResult{
		ReceivedNoT: received,
		ExpectedNoT: expected,
		ValidNoT:    valid,
		Conflicts:   conflicts,
		Stages:      stages.Summarize(),
	}
	if received > 0 {
		// AbortRate is a pure count ratio: it must not vanish when the run
		// has zero duration (under AutoVirtual every confirmation can land
		// at one virtual instant, leaving last == first). Rates that divide
		// by the duration stay explicitly 0 with DurationSec = 0 rather
		// than reporting an inflated or NaN throughput.
		res.AbortRate = float64(received-valid) / float64(received)
		if last.After(first) {
			res.DurationSec = last.Sub(first).Seconds()
			res.TPS = float64(received) / res.DurationSec
			res.Goodput = float64(valid) / res.DurationSec
		}
	}
	if latencyN > 0 {
		res.FLS = (latencySum / time.Duration(latencyN)).Seconds()
	}
	if hist.Count() > 0 {
		res.P50 = hist.Quantile(0.50).Seconds()
		res.P95 = hist.Quantile(0.95).Seconds()
		res.P99 = hist.Quantile(0.99).Seconds()
	}
	return res
}

// abortCode normalizes an event's abort code, labelling systems that report
// invalid commits without classifying them.
func abortCode(code string) string {
	if code == "" {
		return "unclassified"
	}
	return code
}

// Stats summarises a metric across repetitions: mean, standard deviation,
// standard error of the mean, and the 95% confidence interval half-width.
type Stats struct {
	Mean float64 `json:"mean"`
	SD   float64 `json:"sd"`
	SEM  float64 `json:"sem"`
	CI95 float64 `json:"ci95"`
	N    int     `json:"n"`
}

// tCritical95 holds two-sided t-distribution critical values at 95%
// confidence for small degrees of freedom; the paper runs r = 3
// repetitions, i.e. dof = 2 → 4.303, which matches its reported CI/SEM
// ratios.
var tCritical95 = map[int]float64{
	1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
	6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
}

func tCrit(dof int) float64 {
	if v, ok := tCritical95[dof]; ok {
		return v
	}
	return 1.96
}

// Summarize computes Stats over the given samples.
func Summarize(samples []float64) Stats {
	n := len(samples)
	if n == 0 {
		return Stats{}
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(n)
	if n == 1 {
		return Stats{Mean: mean, N: 1}
	}
	var sq float64
	for _, s := range samples {
		sq += (s - mean) * (s - mean)
	}
	sd := math.Sqrt(sq / float64(n-1)) // sample standard deviation
	sem := sd / math.Sqrt(float64(n))
	return Stats{
		Mean: mean,
		SD:   sd,
		SEM:  sem,
		CI95: tCrit(n-1) * sem,
		N:    n,
	}
}

// Result aggregates a full benchmark: MTPS and MFLS (formulas 2 and 1) plus
// duration and transaction-count statistics across repetitions.
type Result struct {
	System    string
	Benchmark string
	// Params echoes the configuration knobs for the report (RL, MM, BP...).
	Params map[string]string

	MTPS     Stats
	MFLS     Stats
	Duration Stats
	Received Stats
	Expected Stats
	// Goodput (valid-committed payloads per second) and AbortRate separate
	// what the chain accepted from what actually changed state; on the
	// paper's conflict-free partitioned workloads Goodput == MTPS and
	// AbortRate == 0.
	Goodput   Stats
	AbortRate Stats
	// Valid summarises valid-committed payload counts across repetitions.
	Valid Stats
	// Conflicts summarises the per-reason abort breakdown (payload counts
	// per repetition, client-observed and driver-side combined).
	Conflicts map[string]Stats
	// MFLSP50/95/99 summarise the latency-histogram percentiles across
	// repetitions.
	MFLSP50 Stats
	MFLSP95 Stats
	MFLSP99 Stats
	// Availability and RecoverySec summarise the fault metrics across
	// repetitions (RecoverySec over recovered repetitions only).
	Availability Stats
	RecoverySec  Stats
	// GoodputRecoverySec summarises post-heal goodput recovery time over
	// the repetitions whose goodput recovered.
	GoodputRecoverySec Stats
	// ReplaySec, ReplayedRecords, RefetchSec, and LogBytes summarise the
	// durable recovery plane across WAL-enabled repetitions: modeled
	// crash-replay time, records replayed, suffix re-fetch time, and the
	// live log footprint (zero-N when the run had no WAL).
	ReplaySec       Stats
	ReplayedRecords Stats
	RefetchSec      Stats
	LogBytes        Stats
	// Stages summarises the per-stage pipeline latency breakdown across
	// repetitions, in pipeline order (nil without stage instrumentation).
	Stages []StageResult
	// Series is the element-wise mean of the repetitions' windowed gauge
	// telemetry (nil when no repetition collected a series).
	Series GaugeSeries
	// Bottleneck names the stage with the largest mean latency — the
	// pipeline's dominant cost. Empty without stage data.
	Bottleneck string

	Repetitions []RepetitionResult
}

// StageResult summarises one pipeline stage's latency across repetitions.
type StageResult struct {
	Stage string
	Mean  Stats
	P50   Stats
	P95   Stats
	Ops   Stats
}

// Aggregate folds repetition results into a Result.
func Aggregate(system, benchmark string, params map[string]string, reps []RepetitionResult) Result {
	var tps, fls, dur, recv, exp, valid, good, abort, p50, p95, p99, avail, recov, goodRecov []float64
	var replay, replayed, refetch, logBytes []float64
	codes := make(map[string]bool)
	for _, r := range reps {
		tps = append(tps, r.TPS)
		fls = append(fls, r.FLS)
		dur = append(dur, r.DurationSec)
		recv = append(recv, float64(r.ReceivedNoT))
		exp = append(exp, float64(r.ExpectedNoT))
		valid = append(valid, float64(r.ValidNoT))
		good = append(good, r.Goodput)
		abort = append(abort, r.AbortRate)
		p50 = append(p50, r.P50)
		p95 = append(p95, r.P95)
		p99 = append(p99, r.P99)
		for code := range r.Conflicts {
			codes[code] = true
		}
		if r.Windows != nil { // fault metrics exist only with a timeline
			avail = append(avail, r.Availability)
			if r.Recovered {
				recov = append(recov, r.RecoverySec)
			}
			if r.GoodputRecovered {
				goodRecov = append(goodRecov, r.GoodputRecoverySec)
			}
		}
		if r.WALEnabled { // durability metrics exist only with a WAL
			replay = append(replay, r.ReplaySec)
			replayed = append(replayed, float64(r.ReplayedRecords))
			refetch = append(refetch, r.RefetchSec)
			logBytes = append(logBytes, float64(r.LogBytes))
		}
	}
	stages, bottleneck := aggregateStages(reps)
	var conflicts map[string]Stats
	if len(codes) > 0 {
		conflicts = make(map[string]Stats, len(codes))
		for code := range codes {
			samples := make([]float64, 0, len(reps))
			for _, r := range reps {
				samples = append(samples, float64(r.Conflicts[code]))
			}
			conflicts[code] = Summarize(samples)
		}
	}
	return Result{
		System:             system,
		Benchmark:          benchmark,
		Params:             params,
		MTPS:               Summarize(tps),
		MFLS:               Summarize(fls),
		Duration:           Summarize(dur),
		Received:           Summarize(recv),
		Expected:           Summarize(exp),
		Valid:              Summarize(valid),
		Goodput:            Summarize(good),
		AbortRate:          Summarize(abort),
		Conflicts:          conflicts,
		MFLSP50:            Summarize(p50),
		MFLSP95:            Summarize(p95),
		MFLSP99:            Summarize(p99),
		Availability:       Summarize(avail),
		RecoverySec:        Summarize(recov),
		GoodputRecoverySec: Summarize(goodRecov),
		ReplaySec:          Summarize(replay),
		ReplayedRecords:    Summarize(replayed),
		RefetchSec:         Summarize(refetch),
		LogBytes:           Summarize(logBytes),
		Stages:             stages,
		Bottleneck:         bottleneck,
		Series:             combineSeries(reps),
		Repetitions:        reps,
	}
}

// aggregateStages folds per-repetition stage breakdowns into per-stage Stats
// in pipeline order and names the bottleneck (the stage with the largest
// mean latency). A stage absent from a repetition contributes nothing to
// that stage's samples rather than a fake zero.
func aggregateStages(reps []RepetitionResult) ([]StageResult, string) {
	type acc struct{ mean, p50, p95, ops []float64 }
	var accs [chain.NumStages]acc
	seen := false
	for _, r := range reps {
		for _, ss := range r.Stages {
			s, ok := chain.StageByName(ss.Stage)
			if !ok {
				continue
			}
			seen = true
			a := &accs[s]
			a.mean = append(a.mean, ss.MeanSec)
			a.p50 = append(a.p50, ss.P50Sec)
			a.p95 = append(a.p95, ss.P95Sec)
			a.ops = append(a.ops, float64(ss.Ops))
		}
	}
	if !seen {
		return nil, ""
	}
	var out []StageResult
	bottleneck := ""
	worst := -1.0
	for i := 0; i < chain.NumStages; i++ {
		a := accs[i]
		if len(a.mean) == 0 {
			continue
		}
		sr := StageResult{
			Stage: chain.Stage(i).String(),
			Mean:  Summarize(a.mean),
			P50:   Summarize(a.p50),
			P95:   Summarize(a.p95),
			Ops:   Summarize(a.ops),
		}
		out = append(out, sr)
		if sr.Mean.Mean > worst {
			worst = sr.Mean.Mean
			bottleneck = sr.Stage
		}
	}
	return out, bottleneck
}

// String renders the result as one row in the paper's reporting style.
func (r Result) String() string {
	return fmt.Sprintf("%-18s %-26s MTPS=%.2f MFLS=%.2fs D=%.2fs NoT=%.0f/%.0f",
		r.System, r.Benchmark, r.MTPS.Mean, r.MFLS.Mean, r.Duration.Mean,
		r.Received.Mean, r.Expected.Mean)
}
