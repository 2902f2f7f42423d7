package coconut

import (
	"fmt"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

// TestStageMetricsSummarizeZero pins the zero-observation behaviour the
// report layer relies on: a fresh accumulator is Empty and summarizes to
// nil (not a slice of zero rows), and observations carrying no ops or a
// negative duration never turn it non-empty / never divide by zero.
func TestStageMetricsSummarizeZero(t *testing.T) {
	var m StageMetrics
	if !m.Empty() {
		t.Fatal("fresh StageMetrics should be Empty")
	}
	if got := m.Summarize(); got != nil {
		t.Fatalf("Summarize on zero observations = %v, want nil", got)
	}

	// ops <= 0 is a no-op, not a zero-weight row.
	m.Observe(chain.StageSubmit, time.Millisecond, 0)
	m.Observe(chain.StageSubmit, time.Millisecond, -3)
	if !m.Empty() {
		t.Fatal("zero/negative-ops observations should not record")
	}

	// Negative durations clamp to zero rather than corrupting the sum.
	m.Observe(chain.StageSubmit, -time.Second, 2)
	ss := m.Summarize()
	if len(ss) != 1 || ss[0].Ops != 2 {
		t.Fatalf("Summarize after clamped observation = %+v, want one row with Ops=2", ss)
	}
	if ss[0].MeanSec != 0 {
		t.Fatalf("negative duration should clamp to 0, got mean %v", ss[0].MeanSec)
	}
}

// TestStageMetricsMergeEmptySide checks Merge with one empty operand in
// both directions (and a nil other): the non-empty side's data must pass
// through unchanged.
func TestStageMetricsMergeEmptySide(t *testing.T) {
	mk := func() *StageMetrics {
		m := &StageMetrics{}
		m.Observe(chain.StageSubmit, 10*time.Millisecond, 4)
		m.Observe(chain.StageCommit, 30*time.Millisecond, 2)
		return m
	}
	want := mk().Summarize()

	// Non-empty <- empty.
	a := mk()
	a.Merge(&StageMetrics{})
	if got := a.Summarize(); !stageStatsEqual(got, want) {
		t.Fatalf("merge of empty into populated changed data:\n got %+v\nwant %+v", got, want)
	}

	// Non-empty <- nil.
	a = mk()
	a.Merge(nil)
	if got := a.Summarize(); !stageStatsEqual(got, want) {
		t.Fatalf("merge of nil into populated changed data:\n got %+v\nwant %+v", got, want)
	}

	// Empty <- non-empty.
	b := &StageMetrics{}
	b.Merge(mk())
	if b.Empty() {
		t.Fatal("merging populated metrics into empty should record")
	}
	if got := b.Summarize(); !stageStatsEqual(got, want) {
		t.Fatalf("merge of populated into empty lost data:\n got %+v\nwant %+v", got, want)
	}
}

// TestStageMetricsConcurrentMerge: worker actors on one clock observe into
// a shared root between their parks and merge their own accumulators into it
// while the others are still observing; no op is lost.
func TestStageMetricsConcurrentMerge(t *testing.T) {
	const (
		workers = 8
		perW    = 200
	)
	clk := clocktest.New(t)
	var root StageMetrics
	names := make([]string, workers)
	for w := range names {
		names[w] = fmt.Sprintf("worker-%d", w)
	}
	clock.Go(clk, names, func(w int) {
		local := &StageMetrics{}
		for i := 0; i < perW; i++ {
			s := chain.Stage(i % chain.NumStages)
			local.Observe(s, time.Duration(1+i)*time.Microsecond, 1)
			root.Observe(s, time.Duration(1+w)*time.Microsecond, 1)
			clk.Sleep(time.Duration(1+w) * time.Microsecond)
		}
		root.Merge(local)
	})()

	var ops int
	for _, ss := range root.Summarize() {
		ops += ss.Ops
	}
	if want := 2 * workers * perW; ops != want {
		t.Fatalf("interleaved merge lost observations: got %d ops, want %d", ops, want)
	}
}

func stageStatsEqual(a, b []StageStat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
