// Latencystudy: reproduce the paper's §5.8.1 methodology on one system —
// run the same workload on a pristine network and on one with netem-style
// emulated latency (normal distribution, mu 12ms, sigma 2ms on every link)
// and report the throughput drop. The paper finds Fabric loses 33-40% of
// its throughput under this emulation because of the extra orderer
// round trips.
//
// Run with:
//
//	go run ./examples/latencystudy
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/network"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/fabric"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	measure := func(label string, model network.LatencyModel) (float64, float64, error) {
		newDriver := func(clk clock.Clock) systems.Driver {
			return fabric.New(fabric.Config{
				MaxMessageCount: 50,
				BatchTimeout:    20 * time.Millisecond,
				Latency:         model,
				Clock:           clk,
			})
		}
		results, err := coconut.Run(coconut.RunConfig{
			SystemName:   systems.NameFabric,
			NewDriver:    newDriver,
			Unit:         []coconut.BenchmarkName{coconut.BenchDoNothing},
			Clients:      4,
			RateLimit:    200,
			SendDuration: 1500 * time.Millisecond,
			ListenGrace:  400 * time.Millisecond,
			Repetitions:  2,
		})
		if err != nil {
			return 0, 0, err
		}
		r := results[0]
		fmt.Printf("%-24s MTPS=%8.2f ±%.2f   MFLS=%6.2fms   received %.0f/%.0f\n",
			label, r.MTPS.Mean, r.MTPS.CI95, r.MFLS.Mean*1000,
			r.Received.Mean, r.Expected.Mean)
		return r.MTPS.Mean, r.MFLS.Mean, nil
	}

	fmt.Println("Fabric DoNothing, with and without emulated network latency")
	fmt.Println("(paper §5.8.1: netem normal distribution, mu=12ms, sigma=2ms)")
	fmt.Println()

	baseTPS, baseFLS, err := measure("LAN (no emulation)", nil)
	if err != nil {
		return err
	}
	// The emulation is scaled like the rest of the simulation (1/100 of
	// the paper's wall-clock), keeping latency/block-time ratios intact.
	latTPS, latFLS, err := measure("netem mu=12ms sigma=2ms", network.NewNormalLatency(
		120*time.Microsecond, 20*time.Microsecond, 7))
	if err != nil {
		return err
	}

	if baseTPS > 0 && baseFLS > 0 {
		fmt.Printf("\nfinalization latency change: %+.1f%%\n", 100*(latFLS-baseFLS)/baseFLS)
		fmt.Printf("throughput change:           %+.1f%%\n", 100*(latTPS-baseTPS)/baseTPS)
		fmt.Println()
		fmt.Println("The latency hit lands on MFLS here: the in-process pipeline keeps")
		fmt.Println("ordering fully pipelined, so MTPS barely moves. The paper's real")
		fmt.Println("Fabric loses 33-40% MTPS through orderer round trips (EXPERIMENTS.md")
		fmt.Println("records this as a known deviation).")
	}
	return nil
}
