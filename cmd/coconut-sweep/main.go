// Command coconut-sweep runs experiment scenarios: declarative,
// serializable specs composing system x workload x arrival x faults x
// scale, executed by one engine (experiments.Run) and rendered by one
// report writer. The paper's figures and tables, the chaos presets, and
// the contention grid are all named scenarios in the registry; ad-hoc
// compositions load from JSON files.
//
// Examples:
//
//	coconut-sweep -scenario figure3                 # full 42-cell heat map
//	coconut-sweep -scenario figure4 -system Fabric  # one system's latency column
//	coconut-sweep -scenario table13+14              # Fabric SendPayment rows
//	coconut-sweep -scenario faults-partition-heal   # chaos preset, all systems
//	coconut-sweep -scenario contention-under-chaos  # skewed SmallBank across a partition-heal
//	coconut-sweep -scenario my-experiment.json      # spec from a file
//	coconut-sweep -scenario figure3,table15+16 -md EXPERIMENTS.md  # combined report
//	coconut-sweep -list                             # every scenario and flag value
//
// A single cell is a one-system, one-benchmark spec file, e.g.
// {"systems":["Fabric"],"benchmarks":["DoNothing"],"params":{"rl":1600,"mm":1000}},
// and -json is the result store.
//
// Figure 3 and 4 runs print a fidelity summary (experiments.Fidelity): mean
// |log2(model/paper)|, the cells that reach or pass their rate limiter, the
// cells that disagree with the paper, and the paper's shape checks. The exit status reports only whether every run
// completed; the fidelity bounds are enforced by the TestPaperFidelity test
// in internal/experiments, not by this command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/faults"
	"github.com/coconut-bench/coconut/internal/trace"
	"github.com/coconut-bench/coconut/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coconut-sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenarioArg = flag.String("scenario", "", "comma-separated scenarios to run: registry names (see -list) or JSON spec files")
		jsonPath    = flag.String("json", "", "write the outcomes as JSON to this file")
		mdPath      = flag.String("md", "", "also write the combined markdown report to this file")
		system      = flag.String("system", "", "restrict every scenario to one system")
		scale       = flag.Float64("scale", 0.01, "time scale")
		sendSec     = flag.Float64("send", 300, "sending window in paper seconds")
		reps        = flag.Int("reps", 1, "repetitions (the paper uses 3)")
		seed        = flag.Int64("seed", 42, "deterministic seed")
		arrival     = flag.String("arrival", "uniform", "client arrival schedule: uniform, poisson, or burst[:N]")
		tracePath   = flag.String("trace", "", "record sampled per-transaction spans across every cell and write Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) to this file")
		ndjsonPath  = flag.String("ndjson", "", "stream each cell's windowed gauge series to this file as NDJSON, one record per timeline window")
		stagesFlag  = flag.Bool("stages", false, "print the per-stage pipeline latency breakdown (submit/queue/consensus/execute/validate/commit) and bottleneck per cell")
		list        = flag.Bool("list", false, "enumerate scenarios, benchmarks, arrivals, fault presets, mixes, and skews")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file when the sweep finishes")
	)
	flag.Parse()

	if *list {
		printList()
		return nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "coconut-sweep: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "coconut-sweep: memprofile:", err)
			}
		}()
	}

	if _, err := coconut.ArrivalByName(*arrival); err != nil {
		return err
	}
	opts := experiments.Options{
		Scale:       *scale,
		SendSeconds: *sendSec,
		Repetitions: *reps,
		Arrival:     *arrival,
		Seed:        *seed,
		Progress:    printProgress,
	}
	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New(trace.Options{})
		opts.Trace = tracer
	}
	if *ndjsonPath != "" {
		f, err := os.Create(*ndjsonPath)
		if err != nil {
			return fmt.Errorf("ndjson: %w", err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		inner := opts.Progress
		opts.Progress = func(p experiments.Progress) {
			inner(p)
			if err := streamGauges(enc, p); err != nil {
				fmt.Fprintln(os.Stderr, "coconut-sweep: ndjson:", err)
			}
		}
	}

	scenarios, err := resolveScenarios(*scenarioArg)
	if err != nil {
		return err
	}
	if len(scenarios) == 0 {
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -scenario or -list")
	}
	if *system != "" {
		// Restrict, never replace: a scenario pinned to other systems (a
		// paper table) is skipped with a notice instead of being run
		// against a system its parameters and references do not describe.
		restricted := scenarios[:0]
		for _, sc := range scenarios {
			keep := false
			for _, s := range sc.Systems {
				if s == *system {
					keep = true
				}
			}
			if len(sc.Systems) == 0 {
				// Default = all systems; validation rejects unknown names.
				keep = true
			}
			if !keep {
				fmt.Fprintf(os.Stderr, "coconut-sweep: skipping %s: it does not include system %q (systems: %s)\n",
					sc.Name, *system, strings.Join(sc.Systems, ", "))
				continue
			}
			sc.Systems = []string{*system}
			restricted = append(restricted, sc)
		}
		scenarios = restricted
		if len(scenarios) == 0 {
			return fmt.Errorf("no requested scenario includes system %q", *system)
		}
	}

	var outcomes []*experiments.Outcome
	for _, sc := range scenarios {
		fmt.Printf("== Scenario %s: %s ==\n", sc.Name, sc.Description)
		oc, err := experiments.Run(context.Background(), sc, opts)
		if err != nil {
			return err
		}
		outcomes = append(outcomes, oc)
		printTimings(oc)
		if err := experiments.WriteFidelity(os.Stdout, oc); err != nil {
			return err
		}
		if *stagesFlag {
			printStages(oc)
		}
	}

	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteReport(f, outcomes...); err != nil {
			return err
		}
		if tracer != nil {
			if err := writeExemplarSection(f, tracer, *tracePath); err != nil {
				return err
			}
		}
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		if err := tracer.WriteJSON(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("trace: %d spans (%d dropped at cap) -> %s\n", tracer.Len(), tracer.Dropped(), *tracePath)
		for _, ex := range tracer.Exemplars() {
			fmt.Printf("  [exemplar] %-4s txid=%s %.4fs\n", ex.Label, ex.TxID, ex.Seconds)
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(outcomes, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printTimings renders one [virtual] line per cell. A cell whose row came
// from another cell's run names that cell; a cell that ran a unit divides
// the run's hand-offs by the payloads of every row the run produced.
func printTimings(oc *experiments.Outcome) {
	// Rows and timings are both one per cell, in expansion order.
	sent := make([]int, len(oc.Timings))
	for i, t := range oc.Timings {
		run := i
		if t.RunBy > 0 {
			run = t.RunBy - 1
		}
		for _, rep := range oc.Rows[i].Result.Repetitions {
			sent[run] += rep.ExpectedNoT
		}
	}
	for i, t := range oc.Timings {
		if t.RunBy > 0 {
			fmt.Printf("  [virtual] %-40s row from cell %d's run (%s)\n", t.Cell, t.RunBy, oc.Timings[t.RunBy-1].Cell)
			continue
		}
		perTx := 0.0
		if sent[i] > 0 {
			perTx = float64(t.Handoffs) / float64(sent[i])
		}
		fmt.Printf("  [virtual] %-40s %8.1f sim-s / %6.2f wall-s = %7.1fx  %5.2f hand-offs/tx\n",
			t.Cell, t.SimSeconds, t.WallSeconds, t.Speedup, perTx)
	}
}

// printProgress renders engine completion events as sweep progress lines.
func printProgress(p experiments.Progress) {
	if p.Result == nil {
		return
	}
	r := p.Result
	line := fmt.Sprintf("[%d/%d] %-44s MTPS=%8.2f MFLS=%6.2fs recv=%.0f/%.0f",
		p.Index, p.Total, p.Cell, r.MTPS.Mean, r.MFLS.Mean, r.Received.Mean, r.Expected.Mean)
	if r.AbortRate.Mean > 0 || r.Goodput.Mean != r.MTPS.Mean {
		line += fmt.Sprintf(" goodput=%.2f abort=%.1f%%", r.Goodput.Mean, 100*r.AbortRate.Mean)
	}
	if r.Availability.N > 0 {
		line += fmt.Sprintf(" avail=%.0f%%", 100*r.Availability.Mean)
		if r.GoodputRecoverySec.N > 0 {
			line += fmt.Sprintf(" goodput-recovery=%.2fs", r.GoodputRecoverySec.Mean)
		}
	}
	if s := experiments.ConflictSummary(*r, 3); s != "-" {
		line += " conflicts=" + s
	}
	fmt.Println(line)
}

// streamGauges writes one NDJSON record per timeline window of a completed
// cell's gauge series: the cell coordinates plus every registered gauge by
// name. Cells without a series (no timeline, or a driver that does not
// report queue depths) emit nothing.
func streamGauges(enc *json.Encoder, p experiments.Progress) error {
	if p.Result == nil {
		return nil
	}
	for i, smp := range p.Result.Series {
		rec := map[string]any{
			"scenario": p.Scenario,
			"cell":     p.Cell,
			"system":   p.System,
			"window":   i,
		}
		for g := 0; g < coconut.NumGauges; g++ {
			rec[coconut.GaugeNames[g]] = smp[g]
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// writeExemplarSection appends the sampled-trace exemplars to the markdown
// report: the p50/p99/max end-to-end transactions with the txid to search
// for in Perfetto, linked to the trace file the sweep wrote. Like the
// report, the section is built in memory and written once.
func writeExemplarSection(w io.Writer, tr *trace.Tracer, tracePath string) error {
	exemplars := tr.Exemplars()
	if len(exemplars) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### Trace exemplars\n\nSampled per-transaction spans were recorded to [`%s`](%s) (load in [Perfetto](https://ui.perfetto.dev) or chrome://tracing; search a txid under span args). %d spans retained, %d dropped at the cap.\n\n",
		tracePath, tracePath, tr.Len(), tr.Dropped())
	b.WriteString("| Exemplar | TxID | End-to-end |\n|---|---|---:|\n")
	for _, ex := range exemplars {
		fmt.Fprintf(&b, "| %s | `%s` | %.4fs |\n", ex.Label, ex.TxID, ex.Seconds)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// printStages renders each cell's per-stage pipeline latency breakdown and
// names the dominant stage. The markdown report renders the same data as a
// table whenever it is present; this flag surfaces it on stdout.
func printStages(oc *experiments.Outcome) {
	for _, row := range oc.Rows {
		r := row.Result
		if len(r.Stages) == 0 {
			continue
		}
		line := fmt.Sprintf("  [stages] %-40s", row.System+"/"+row.Benchmark)
		for _, sr := range r.Stages {
			line += fmt.Sprintf(" %s=%.3fs", sr.Stage, sr.Mean.Mean)
		}
		line += " bottleneck=" + r.Bottleneck
		fmt.Println(line)
	}
}

// resolveScenarios maps the -scenario flag onto scenario specs: each
// comma-separated entry is a registry name or a JSON spec file.
func resolveScenarios(scenarioArg string) ([]experiments.Scenario, error) {
	var out []experiments.Scenario
	for _, name := range strings.Split(scenarioArg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if strings.HasSuffix(name, ".json") {
			data, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			sc, err := experiments.ParseScenario(data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if sc.Name == "" {
				sc.Name = strings.TrimSuffix(name, ".json")
			}
			out = append(out, sc)
			continue
		}
		sc, err := experiments.ScenarioByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// printList enumerates every scenario and flag value that is otherwise
// only discoverable by reading source.
func printList() {
	fmt.Println("scenarios (-scenario, comma-separable; or a .json spec file):")
	byName := make(map[string]experiments.Scenario)
	for _, sc := range experiments.Registry() {
		byName[sc.Name] = sc
	}
	for _, name := range experiments.ScenarioNames() {
		fmt.Printf("  %-26s %s\n", name, byName[name].Description)
	}
	fmt.Println("benchmarks (scenario Benchmarks entries):")
	for _, b := range coconut.AllBenchmarks {
		fmt.Printf("  %s\n", b)
	}
	fmt.Println("arrival schedules (-arrival):")
	fmt.Println("  uniform, poisson, burst[:N]")
	fmt.Println("fault presets (scenario Faults.Preset):")
	for _, p := range faults.PresetNames() {
		fmt.Printf("  %s\n", p)
	}
	fmt.Println("operation mixes (scenario Workload.Mixes):")
	for _, m := range workload.MixNames() {
		fmt.Printf("  %s\n", m)
	}
	fmt.Println("key distributions (scenario Workload.Skews):")
	for _, d := range workload.DistNames() {
		fmt.Printf("  %s\n", d)
	}
	fmt.Println("systems (-system / scenario Systems entries):")
	for _, s := range experiments.AllSystems {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("telemetry gauges (sampled per timeline window; -ndjson records, report p95/max):")
	for _, g := range coconut.GaugeNames {
		fmt.Printf("  %s\n", g)
	}
	fmt.Println("trace sinks (-trace FILE):")
	fmt.Println("  chrome-trace-event JSON: spans for pipeline stages, network hops, consensus rounds, and WAL appends/fsyncs;")
	fmt.Println("  load in Perfetto (ui.perfetto.dev) or chrome://tracing; exemplar txids print after the sweep and join -md reports")
}
