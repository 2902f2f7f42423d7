package coconut

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/systems"
)

func at(sec int64) time.Time { return time.Unix(sec, 0) }

// hist streams the given latencies, one payload each, into a histogram.
func hist(ds ...time.Duration) *LatencyHist {
	h := NewLatencyHist()
	for _, d := range ds {
		h.Observe(d)
	}
	return h
}

// TestCombineSummariesBasic: two clients, three sends, one lost. t_fstx and
// t_lrtx span the clients (formula 3), MTPS divides the received payloads
// by that window (formula 2), MFLS averages the received latencies
// (formula 1).
func TestCombineSummariesBasic(t *testing.T) {
	res := CombineSummaries([]ClientSummary{
		// Sent at 0 (confirmed at 2, FLS 2s) and at 2 (lost).
		{FirstSend: at(0), LastRecv: at(2), ExpectedNoT: 2, ReceivedNoT: 1, ValidNoT: 1,
			LatencySum: 2 * time.Second, LatencyN: 1, Hist: hist(2 * time.Second)},
		// Sent at 1, confirmed at 5: FLS 4s.
		{FirstSend: at(1), LastRecv: at(5), ExpectedNoT: 1, ReceivedNoT: 1, ValidNoT: 1,
			LatencySum: 4 * time.Second, LatencyN: 1, Hist: hist(4 * time.Second)},
	})
	if res.ExpectedNoT != 3 || res.ReceivedNoT != 2 {
		t.Fatalf("NoT = %d/%d, want 2/3", res.ReceivedNoT, res.ExpectedNoT)
	}
	// Duration = t_lrtx(5) - t_fstx(0) = 5s; TPS = 2/5.
	if res.DurationSec != 5 {
		t.Fatalf("duration = %v, want 5", res.DurationSec)
	}
	if math.Abs(res.TPS-0.4) > 1e-9 {
		t.Fatalf("TPS = %v, want 0.4", res.TPS)
	}
	// MFLS = (2+4)/2 = 3s.
	if math.Abs(res.FLS-3) > 1e-9 {
		t.Fatalf("FLS = %v, want 3", res.FLS)
	}
}

func TestCombineSummariesAllLost(t *testing.T) {
	res := CombineSummaries([]ClientSummary{{FirstSend: at(0), ExpectedNoT: 2, Hist: hist()}})
	if res.TPS != 0 || res.FLS != 0 || res.ReceivedNoT != 0 {
		t.Fatalf("res = %+v, want zeros (paper's failed cells)", res)
	}
	if res.ExpectedNoT != 2 {
		t.Fatalf("expected = %d", res.ExpectedNoT)
	}
}

func TestCombineSummariesEmpty(t *testing.T) {
	res := CombineSummaries(nil)
	if res.TPS != 0 || res.ExpectedNoT != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestClientOpsCounting(t *testing.T) {
	// BitShares-style: one transaction carrying 100 operations counts as
	// 100 transactions (§4.5).
	clk := clock.NewAutoVirtual()
	c := testClient(t, newFakeDriver(), clk, RunConfig{})
	c.track(crypto.Hash{1}, clk.Now(), 100, 0)
	clk.Sleep(time.Second)
	c.onEvent(systems.Event{TxID: crypto.Hash{1}, ValidOK: true})
	res := CombineSummaries([]ClientSummary{c.Summary()})
	if res.ReceivedNoT != 100 {
		t.Fatalf("received = %d, want 100", res.ReceivedNoT)
	}
	if res.TPS != 100 {
		t.Fatalf("TPS = %v, want 100", res.TPS)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4.08, 4.07, 4.09})
	if math.Abs(s.Mean-4.08) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.SD <= 0 || s.SEM <= 0 || s.CI95 <= 0 {
		t.Fatalf("stats = %+v", s)
	}
	// dof=2 → t=4.303; CI = 4.303 * SEM, matching the paper's tables.
	if math.Abs(s.CI95-4.303*s.SEM) > 1e-9 {
		t.Fatalf("CI95 = %v, want 4.303*SEM = %v", s.CI95, 4.303*s.SEM)
	}
}

func TestSummarizeSingleSample(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.SD != 0 || s.N != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSummarizeLargeN(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	s := Summarize(samples)
	if math.Abs(s.CI95-1.96*s.SEM) > 1e-9 {
		t.Fatalf("large-N CI must use z=1.96, got ratio %v", s.CI95/s.SEM)
	}
}

func TestAggregate(t *testing.T) {
	reps := []RepetitionResult{
		{TPS: 10, FLS: 1, DurationSec: 100, ReceivedNoT: 1000, ExpectedNoT: 1200},
		{TPS: 12, FLS: 1.2, DurationSec: 98, ReceivedNoT: 1100, ExpectedNoT: 1200},
		{TPS: 11, FLS: 1.1, DurationSec: 99, ReceivedNoT: 1050, ExpectedNoT: 1200},
	}
	r := Aggregate("Fabric", "DoNothing", map[string]string{"MM": "500"}, reps)
	if math.Abs(r.MTPS.Mean-11) > 1e-9 {
		t.Fatalf("MTPS = %v", r.MTPS.Mean)
	}
	if r.MTPS.N != 3 || len(r.Repetitions) != 3 {
		t.Fatal("repetition bookkeeping wrong")
	}
	if r.Params["MM"] != "500" {
		t.Fatal("params lost")
	}
	if r.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	h := NewLatencyHist()
	// 1..1000ms uniformly: P50 ≈ 500ms, P99 ≈ 990ms, within the histogram's
	// ~3% bucket error.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	check := func(q, wantMs float64) {
		t.Helper()
		got := h.Quantile(q).Seconds() * 1000
		if math.Abs(got-wantMs) > 0.05*wantMs {
			t.Fatalf("Q(%v) = %.1fms, want %.0fms ±5%%", q, got, wantMs)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
}

func TestLatencyHistEdgeCases(t *testing.T) {
	h := NewLatencyHist()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Observe(-time.Second) // clamped to zero
	h.Observe(0)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(1) != 0 {
		t.Fatal("zero-latency observations must quantile to 0")
	}
}

func TestLatencyHistMerge(t *testing.T) {
	a, b := NewLatencyHist(), NewLatencyHist()
	for i := 0; i < 100; i++ {
		a.Observe(10 * time.Millisecond)
		b.Observe(1000 * time.Millisecond)
	}
	a.Merge(b)
	a.Merge(nil) // no-op
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if p := a.Quantile(0.25).Seconds(); math.Abs(p-0.010) > 0.001 {
		t.Fatalf("P25 = %v, want ~10ms", p)
	}
	if p := a.Quantile(0.75).Seconds(); math.Abs(p-1.0) > 0.05 {
		t.Fatalf("P75 = %v, want ~1s", p)
	}
}

// Property: histogram buckets are monotone and bounded-error — for any
// duration, the bucket's representative value is within 1/32 of the input.
func TestPropertyHistBucketRelativeError(t *testing.T) {
	f := func(raw uint32) bool {
		v := uint64(raw)
		got := histValue(histIndex(v))
		diff := math.Abs(float64(got) - float64(v))
		return diff <= math.Max(1, float64(v)/float64(histSubCount))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCombineSummariesPercentiles(t *testing.T) {
	// Three confirmations at 1s, 2s and 10s; the lost fourth send is
	// excluded from the percentiles.
	res := CombineSummaries([]ClientSummary{
		{FirstSend: at(0), LastRecv: at(2), ExpectedNoT: 2, ReceivedNoT: 2,
			LatencySum: 3 * time.Second, LatencyN: 2, Hist: hist(time.Second, 2*time.Second)},
		{FirstSend: at(0), LastRecv: at(10), ExpectedNoT: 2, ReceivedNoT: 1,
			LatencySum: 10 * time.Second, LatencyN: 1, Hist: hist(10 * time.Second)},
	})
	if math.Abs(res.P50-2) > 0.1 {
		t.Fatalf("P50 = %v, want ~2s", res.P50)
	}
	if math.Abs(res.P99-10) > 0.5 {
		t.Fatalf("P99 = %v, want ~10s", res.P99)
	}
}

// TestMFLSIsOpsWeighted is the regression for the MFLS weighting bug: the
// mean finalization latency must weigh each transaction's latency by the
// payloads it carried (§4.5 counts every operation as one transaction), in
// both the mean and the histogram percentiles.
func TestMFLSIsOpsWeighted(t *testing.T) {
	// A 2-op transaction at 1s and a 1-op transaction at 4s: the
	// per-payload mean is (2*1 + 1*4) / 3 = 2s, not (1+4)/2 = 2.5s.
	clk := clock.NewAutoVirtual()
	c := testClient(t, newFakeDriver(), clk, RunConfig{})
	c.track(crypto.Hash{1}, clk.Now(), 2, 0)
	c.track(crypto.Hash{2}, clk.Now(), 1, 0)
	clk.Sleep(time.Second)
	c.onEvent(systems.Event{TxID: crypto.Hash{1}, ValidOK: true})
	clk.Sleep(3 * time.Second)
	c.onEvent(systems.Event{TxID: crypto.Hash{2}, ValidOK: true})
	res := CombineSummaries([]ClientSummary{c.Summary()})
	if got, want := res.FLS, 2.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("MFLS = %v, want %v (ops-weighted)", got, want)
	}
	// Histogram: 3 payload observations, so p50 is the 1s bucket (2 of 3
	// payloads), within the histogram's ~3% bucket error.
	if res.P50 > 1.05 {
		t.Fatalf("P50 = %v, want ~1s (payload-weighted histogram)", res.P50)
	}
}

// TestZeroDurationRepetitionKeepsCounts is the regression for the
// zero-duration metrics drop: when every confirmation lands at one instant
// (routine under AutoVirtual), the repetition must still report its counts
// and AbortRate; only the duration-derived rates stay 0.
func TestZeroDurationRepetitionKeepsCounts(t *testing.T) {
	// Two sends at 5s, both confirmed at 5s, one of them invalid.
	res := CombineSummaries([]ClientSummary{{FirstSend: at(5), LastRecv: at(5),
		ExpectedNoT: 2, ReceivedNoT: 2, ValidNoT: 1, Aborts: map[string]int{systems.AbortExecFailed: 1},
		LatencyN: 2, Hist: hist(0, 0)}})
	if res.ReceivedNoT != 2 || res.ValidNoT != 1 {
		t.Fatalf("counts = %d received / %d valid, want 2/1", res.ReceivedNoT, res.ValidNoT)
	}
	if got, want := res.AbortRate, 0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("AbortRate = %v, want %v despite zero duration", got, want)
	}
	if res.DurationSec != 0 || res.TPS != 0 || res.Goodput != 0 {
		t.Fatalf("duration-derived rates must stay 0: dur=%v tps=%v goodput=%v",
			res.DurationSec, res.TPS, res.Goodput)
	}
}

// Property: MTPS mean always lies within [min, max] of samples.
func TestPropertySummarizeMeanBounded(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			samples[i] = float64(v)
			lo = math.Min(lo, samples[i])
			hi = math.Max(hi, samples[i])
		}
		s := Summarize(samples)
		return s.Mean >= lo-1e-9 && s.Mean <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: received NoT never exceeds expected NoT, however often a
// transaction's finalization is reported, and counts each confirmed payload
// once.
func TestPropertyReceivedNeverExceedsExpected(t *testing.T) {
	f := func(flags []bool) bool {
		clk := clock.NewAutoVirtual()
		c := testClient(t, newFakeDriver(), clk, RunConfig{})
		confirmed := 0
		for i, ok := range flags {
			id := crypto.Hash{byte(i), byte(i >> 8), 1}
			c.track(id, clk.Now(), 1, 0)
			clk.Sleep(time.Second)
			if ok {
				confirmed++
				c.onEvent(systems.Event{TxID: id, ValidOK: true})
				c.onEvent(systems.Event{TxID: id, ValidOK: true}) // duplicate: dropped
			}
		}
		res := CombineSummaries([]ClientSummary{c.Summary()})
		return res.ReceivedNoT <= res.ExpectedNoT && res.ReceivedNoT == confirmed && res.ExpectedNoT == len(flags)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStageMetricsMergeMatchesDirect pins per-stage histogram merge
// correctness: observing a stream split across two StageMetrics and merging
// must yield the same summary as observing it all into one.
func TestStageMetricsMergeMatchesDirect(t *testing.T) {
	var a, b, direct StageMetrics
	obs := []struct {
		s   chain.Stage
		d   time.Duration
		ops int
	}{
		{chain.StageSubmit, 2 * time.Millisecond, 1},
		{chain.StageQueue, 40 * time.Millisecond, 3},
		{chain.StageQueue, 90 * time.Millisecond, 1},
		{chain.StageConsensus, 15 * time.Millisecond, 2},
		{chain.StageCommit, 25 * time.Millisecond, 5},
	}
	for i, o := range obs {
		if i%2 == 0 {
			a.Observe(o.s, o.d, o.ops)
		} else {
			b.Observe(o.s, o.d, o.ops)
		}
		direct.Observe(o.s, o.d, o.ops)
	}
	var merged StageMetrics
	merged.Merge(&a)
	merged.Merge(&b)

	got, want := merged.Summarize(), direct.Summarize()
	if len(got) != len(want) {
		t.Fatalf("stage counts differ: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stage %d: merged %+v != direct %+v", i, got[i], want[i])
		}
	}
	// Ops weighting: queue mean = (3*40 + 1*90)/4 = 52.5ms.
	for _, ss := range got {
		if ss.Stage == "queue" {
			if wantMean := 0.0525; math.Abs(ss.MeanSec-wantMean) > 1e-9 {
				t.Fatalf("queue mean = %v, want %v (ops-weighted)", ss.MeanSec, wantMean)
			}
			if ss.Ops != 4 {
				t.Fatalf("queue ops = %d, want 4", ss.Ops)
			}
		}
	}
	if !(&StageMetrics{}).Empty() {
		t.Fatal("fresh StageMetrics must be Empty")
	}
	if merged.Empty() {
		t.Fatal("merged StageMetrics must not be Empty")
	}
	if (&StageMetrics{}).Summarize() != nil {
		t.Fatal("empty StageMetrics must summarize to nil")
	}
}
