package coconut

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
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
