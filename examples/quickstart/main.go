// Quickstart: run one cell of the paper's Figure 3 — Hyperledger Fabric
// under the DoNothing benchmark at its best configuration — through the
// scenario engine, and print the end-to-end metrics. It is the smallest
// use of the library: a Scenario in, an Outcome out. Every other study is
// the same call with a bigger Scenario; cmd/coconut-sweep runs registered
// scenarios and JSON spec files such as examples/banking.json.
//
// The cell runs on the auto-advancing virtual clock, so it finishes in
// under a second and prints the same numbers on every machine.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/systems"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Four COCONUT clients (the paper's §4.3 layout) send for 300
	// paper-seconds against a 4-peer / 3-orderer Fabric network configured
	// with the Figure 3 winning parameters.
	sc := experiments.Scenario{
		Name:       "quickstart",
		Systems:    []string{systems.NameFabric},
		Benchmarks: []string{string(coconut.BenchDoNothing)},
		BestParams: true,
		PaperRef:   "figure3",
	}
	// Scale 1/100 runs one paper-second as 10 simulated milliseconds.
	opts := experiments.Options{Scale: 0.01, Seed: 42}
	outcome, err := experiments.Run(context.Background(), sc, opts)
	if err != nil {
		return err
	}

	for _, row := range outcome.Rows {
		r := row.Result
		fmt.Println(r)
		fmt.Printf("  MTPS %.2f (paper %.2f)\n", r.MTPS.Mean, row.Paper.MTPS)
		fmt.Printf("  MFLS %.2fs (paper %.2fs), received %d%% of submitted payloads\n",
			opts.PaperSeconds(r.MFLS.Mean), row.Paper.MFLS, int(100*r.Received.Mean/r.Expected.Mean))
	}
	return nil
}
