package coconut_test

import (
	"fmt"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/systems"
)

// ExampleRun drives the DoNothing benchmark against a simulated Fabric
// network, built through the constructor table at its Figure 3 cell and run
// on the auto-advancing virtual clock, and prints whether every submitted
// payload was confirmed end to end.
func ExampleRun() {
	cell, _ := experiments.BestCell(systems.NameFabric, coconut.BenchDoNothing)
	newDriver, err := experiments.NewDriverFunc(systems.NameFabric, cell.Params, experiments.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	results, err := coconut.Run(coconut.RunConfig{
		SystemName:      systems.NameFabric,
		NewDriver:       newDriver,
		NewClock:        func() *clock.AutoVirtual { return clock.NewAutoVirtual() },
		Unit:            []coconut.BenchmarkName{coconut.BenchDoNothing},
		Clients:         2,
		RateLimit:       100,
		WorkloadThreads: 2,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     300 * time.Millisecond,
		Repetitions:     1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r := results[0]
	fmt.Printf("benchmark: %s\n", r.Benchmark)
	fmt.Printf("all confirmed: %v\n", r.Received.Mean == r.Expected.Mean && r.Expected.Mean > 0)
	// Output:
	// benchmark: DoNothing
	// all confirmed: true
}

// ExampleSummarize shows the repetition statistics the paper reports: SD,
// SEM, and the t-distribution 95% confidence interval for r = 3.
func ExampleSummarize() {
	stats := coconut.Summarize([]float64{12.84, 12.70, 12.98})
	fmt.Printf("mean = %.2f\n", stats.Mean)
	fmt.Printf("CI95/SEM = %.3f (t-critical for dof=2)\n", stats.CI95/stats.SEM)
	// Output:
	// mean = 12.84
	// CI95/SEM = 4.303 (t-critical for dof=2)
}

// ExampleCombineSummaries demonstrates the paper's metric formulas on two
// clients' streamed summaries: MTPS (formula 2) uses the first send and last
// receipt across all clients, MFLS (formula 1) averages per-transaction
// latency.
func ExampleCombineSummaries() {
	base := time.Unix(1000, 0)
	res := coconut.CombineSummaries([]coconut.ClientSummary{
		// Sent at +0s (confirmed at +2s) and at +2s (lost).
		{FirstSend: base, LastRecv: base.Add(2 * time.Second), ExpectedNoT: 2, ReceivedNoT: 1,
			ValidNoT: 1, LatencySum: 2 * time.Second, LatencyN: 1},
		// Sent at +1s, confirmed at +5s.
		{FirstSend: base.Add(time.Second), LastRecv: base.Add(5 * time.Second), ExpectedNoT: 1, ReceivedNoT: 1,
			ValidNoT: 1, LatencySum: 4 * time.Second, LatencyN: 1},
	})
	fmt.Printf("TPS = %.2f\n", res.TPS)
	fmt.Printf("FLS = %.1fs\n", res.FLS)
	fmt.Printf("NoT = %d/%d\n", res.ReceivedNoT, res.ExpectedNoT)
	// Output:
	// TPS = 0.40
	// FLS = 3.0s
	// NoT = 2/3
}
