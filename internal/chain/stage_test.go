package chain

import (
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/clock/clocktest"
)

func TestStageNamesRoundTrip(t *testing.T) {
	for s := 0; s < NumStages; s++ {
		got, ok := StageByName(Stage(s).String())
		if !ok || got != Stage(s) {
			t.Fatalf("StageByName(%q) = %v, %v", Stage(s).String(), got, ok)
		}
	}
	if _, ok := StageByName("nonsense"); ok {
		t.Fatal("StageByName accepted an unknown label")
	}
}

func TestStageMarkFirstWriteWins(t *testing.T) {
	var tr StageTrace
	t0 := time.Unix(10, 0)
	tr.Mark(StageQueue, t0)
	tr.Mark(StageQueue, t0.Add(time.Second)) // replay: must not move the mark
	if got := tr.At(StageQueue); got != t0.UnixNano() {
		t.Fatalf("mark moved: %d, want %d", got, t0.UnixNano())
	}
	if tr.At(StageConsensus) != 0 {
		t.Fatal("unset stage must read 0")
	}
	// A mark exactly at the epoch must still read as set.
	var epoch StageTrace
	epoch.Mark(StageSubmit, time.Unix(0, 0))
	if epoch.At(StageSubmit) == 0 {
		t.Fatal("epoch mark read as unset")
	}
}

func TestStageDurationsAttributeIntervals(t *testing.T) {
	// Order-execute shape: submit 1s, queue 2s, consensus 3s, execute 0s
	// (same decide instant), commit closes at the client.
	var tr StageTrace
	base := time.Unix(100, 0)
	tr.Mark(StageSubmit, base.Add(1*time.Second))
	tr.Mark(StageQueue, base.Add(3*time.Second))
	tr.Mark(StageConsensus, base.Add(6*time.Second))
	tr.Mark(StageExecute, base.Add(6*time.Second))
	end := base.Add(8 * time.Second)

	var buf [NumStages]StageSpan
	spans := tr.Durations(base, end, buf[:0])
	want := map[Stage]time.Duration{
		StageSubmit:    1 * time.Second,
		StageQueue:     2 * time.Second,
		StageConsensus: 3 * time.Second,
		StageExecute:   0,
		StageCommit:    2 * time.Second,
	}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v, want %d entries", spans, len(want))
	}
	var total time.Duration
	for _, sp := range spans {
		if d, ok := want[sp.Stage]; !ok || d != sp.Dur {
			t.Fatalf("stage %v = %v, want %v", sp.Stage, sp.Dur, want[sp.Stage])
		}
		total += sp.Dur
	}
	if total != end.Sub(base) {
		t.Fatalf("stage durations sum to %v, want end-to-end %v", total, end.Sub(base))
	}
}

func TestStageDurationsHandleExecuteFirstPipelines(t *testing.T) {
	// Fabric shape: execution (endorsement) completes before the envelope
	// ever queues for ordering. Attribution must follow mark time, not the
	// enum order.
	var tr StageTrace
	base := time.Unix(0, 0)
	tr.Mark(StageExecute, base.Add(1*time.Second)) // endorse
	tr.Mark(StageSubmit, base.Add(2*time.Second))  // orderer ingress admit
	tr.Mark(StageQueue, base.Add(4*time.Second))   // block cut
	tr.Mark(StageConsensus, base.Add(5*time.Second))
	tr.Mark(StageValidate, base.Add(6*time.Second))

	var buf [NumStages]StageSpan
	spans := tr.Durations(base, base.Add(7*time.Second), buf[:0])
	order := make([]Stage, len(spans))
	for i, sp := range spans {
		order[i] = sp.Stage
	}
	wantOrder := []Stage{StageExecute, StageSubmit, StageQueue, StageConsensus, StageValidate, StageCommit}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("span order = %v, want %v", order, wantOrder)
		}
	}
	if spans[0].Dur != time.Second || spans[1].Dur != time.Second {
		t.Fatalf("execute-first intervals wrong: %v", spans)
	}
}

// TestStageMarksMonotonic drives marks from validator events sharing one
// transaction (the gossip-shared-pointer case), each stamping every stage a
// little after the one before it, and checks the resolved durations are
// non-negative and sum exactly to the end-to-end window — the invariant the
// per-stage histograms rely on.
func TestStageMarksMonotonic(t *testing.T) {
	clk := clocktest.New(t)
	var tr StageTrace
	base := clk.Now()
	stamp := func(s, g int) time.Time {
		return base.Add(time.Duration(s+1)*time.Second + time.Duration(g)*time.Millisecond)
	}
	next := make([]int, 4) // each validator's next stage
	clocktest.Steps(t, clk, time.Minute, "validators marking", []string{"v0", "v1", "v2", "v3"}, func(g int) (time.Duration, bool) {
		s := next[g]
		if s == NumStages-1 {
			return 0, true
		}
		if at := stamp(s, g); clk.Now().Before(at) {
			return at.Sub(clk.Now()), false
		}
		tr.Mark(Stage(s), clk.Now())
		next[g]++
		return 0, false
	})
	end := base.Add(10 * time.Second)
	var buf [NumStages]StageSpan
	spans := tr.Durations(base, end, buf[:0])
	var total time.Duration
	for _, sp := range spans {
		if sp.Dur < 0 {
			t.Fatalf("negative duration for %v: %v", sp.Stage, sp.Dur)
		}
		total += sp.Dur
	}
	if total != end.Sub(base) {
		t.Fatalf("durations sum to %v, want %v", total, end.Sub(base))
	}
	// The first stamp of each stage wins, and in driver code the first
	// arrival is the earliest completion: validator v0's.
	for s := 0; s < NumStages-1; s++ {
		if got, want := tr.At(Stage(s)), stamp(s, 0).UnixNano(); got != want {
			t.Fatalf("stage %v mark = %d, want the first stamp %d", Stage(s), got, want)
		}
	}
}

// BenchmarkStageOverhead proves the per-transaction cost of stage
// instrumentation: marking every stage and resolving the trace into spans
// allocates nothing, so the TxDigest/Broadcast hot paths keep their
// zero-alloc property.
func BenchmarkStageOverhead(b *testing.B) {
	base := time.Unix(0, 1)
	end := base.Add(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr StageTrace
		for s := 0; s < NumStages; s++ {
			tr.Mark(Stage(s), base.Add(time.Duration(s)*time.Millisecond))
		}
		var buf [NumStages]StageSpan
		spans := tr.Durations(base, end, buf[:0])
		if len(spans) != NumStages {
			b.Fatal("span count")
		}
	}
}
