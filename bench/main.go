// Command bench is the repository's frozen performance ledger: four
// workloads run through the public experiments.Run API under pinned
// conditions, reporting what the harness costs the host (end to end, gated)
// and where that cost goes (per layer, ungated), and checking that the
// model's outputs repeat exactly. See README.md for every metric.
//
//	go run ./bench                                   # all four workloads, both modes
//	go run ./bench -workload saturation -trace 0     # one workload, end-to-end metrics
//	go run ./bench -compare A/ledger.json B/ledger.json
//
// Every workload runs in a child process of its own, one at a time, so
// allocation counts and peak RSS belong to that workload alone and a
// deadlock panic fails its cells instead of the whole run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"

	"github.com/coconut-bench/coconut/internal/clock"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Ledger is one complete run: every report, with the spans kept apart in
// trace.json.
type Ledger struct {
	TraceID string    `json:"trace_id"`
	Seed    int64     `json:"seed"`
	Reports []*Report `json:"reports"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all four)")
		seed     = fs.Int64("seed", 42, "seed the scenarios' inputs are generated from")
		_        = fs.Float64("seconds", 0, "accepted and ignored: the benchmark driver passes BENCHMARK.json's run_seconds, but a run's work is fixed (the recipe's cells, repeated as often as the recipe says), never set by a time budget or the host's speed")
		trace    = fs.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced repetition and the probes (default: both)")
		out      = fs.String("out", filepath.Join("bench", "out"), "directory for ledger.json, trace.json and profiles")
		compare  = fs.Bool("compare", false, "compare two ledgers: bench -compare A.json B.json")
		child    = fs.String("child", "", "internal: measure -workload in this process and write the report here; \"setup\" sets up and exits")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two ledger files"))
		}
		regressed, err := compareLedgers(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	var modes []bool
	switch *trace {
	case "":
		modes = []bool{false, true}
	case "0", "1":
		modes = []bool{*trace == "1"}
	default:
		return fail(fmt.Errorf("-trace wants 0 or 1, got %q", *trace))
	}
	names := workloadNames
	if *workload != "" {
		if _, err := loadRecipe(*workload); err != nil {
			return fail(err)
		}
		names = []string{*workload}
	}

	if *child != "" {
		name := names[0]
		load := func() (*Recipe, error) { return loadRecipe(name) }
		if *child == setupOnly {
			runtime.GOMAXPROCS(1) // as measure pins it for the measuring child's set-up
			if _, err := setup(load, *seed); err != nil {
				return fail(err)
			}
			return 0
		}
		rp, err := measure(measureConfig{Load: load, Seed: *seed, Trace: modes[0], OutDir: *out})
		if err != nil {
			return fail(err)
		}
		if err := writeJSON(*child, rp); err != nil {
			return fail(err)
		}
		return 0
	}

	// The parent: one child per workload and mode, never two at once.
	if err := os.MkdirAll(*out, 0o755); err != nil { //vet:allow directio the benchmark writes its own ledger
		return fail(err)
	}
	fmt.Fprintf(stdout, "frozen conditions: -time virtual, seed %d, SendSeconds=300, GraceSeconds=30, Repetitions=1, 4 clients, zero-latency links (netem off), GOMAXPROCS=1\n", *seed)
	ledger := &Ledger{TraceID: newTraceID(clock.Walltime()), Seed: *seed}
	var spans [][]Span
	for _, name := range names {
		var reports []*Report
		for _, traced := range modes {
			reports = append(reports, runChild(name, traced, *seed, *out, stderr))
		}
		if len(reports) == 2 {
			failUnlessSameModel(reports[0], reports[1])
		}
		for _, rp := range reports {
			printReport(stdout, rp)
			spans = append(spans, rp.Spans)
			rp.Spans = nil
			ledger.Reports = append(ledger.Reports, rp)
		}
	}
	if err := writeJSON(filepath.Join(*out, "ledger.json"), ledger); err != nil {
		return fail(err)
	}
	if err := writeJSON(filepath.Join(*out, "trace.json"), mergeSpans(ledger.TraceID, spans)); err != nil {
		return fail(err)
	}

	code := 0
	for _, rp := range ledger.Reports {
		if rp.CellsFailed > 0 {
			code = 1
		}
	}
	if len(ledger.Reports) == 1 {
		// One workload in one mode: end with the machine-readable result.
		fmt.Fprintln(stdout, resultLine(ledger.Reports[0]))
	}
	return code
}

// setupOnly is the -child value of a process that sets up and exits.
const setupOnly = "setup"

// setupRuns is how many set-up processes a run times, half before the
// measuring child and half after it. setup_s is the fastest of them: set-up
// is the same work every time, so whatever a start takes beyond the fastest
// is the host's doing, and on this sandbox that comes in spells — most a
// second or so long, some minutes — that slow a cold start by half. A spell
// holds the median of seven back-to-back starts in about three runs of ten;
// the fastest start of two groups a repetition-length apart escapes all but
// the long ones.
const setupRuns = 8

// childCommand builds the command line of a child of this program.
func childCommand(child, name, mode string, seed int64, out string, stderr io.Writer) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", child, "-workload", name, "-trace", mode, "-out", out, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = stderr
	return cmd, nil
}

// timeSetups measures setup_s: the time from starting a fresh process to
// the point where its first timed repetition would begin — program start,
// package initialisation, recipe parse and validation, cell expansion and
// the warm-up cell with all the lazy initialisation it triggers. Each sample
// is a process of its own that sets up and exits, timed from outside, so
// work a later change moves from the repetitions into start-up shows here.
func timeSetups(n int, name string, seed int64, out string, stderr io.Writer) ([]float64, error) {
	samples := make([]float64, n)
	for i := range samples {
		cmd, err := childCommand(setupOnly, name, "0", seed, out, stderr)
		if err != nil {
			return nil, err
		}
		t0 := clock.Walltime()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		samples[i] = clock.Walltime().Sub(t0).Seconds()
	}
	return samples, nil
}

// runChild measures one workload in a child process and returns its report;
// with tracing off it times set-up processes before and after. A child that
// dies — a deadlock panic, a failed probe — fails every cell of the workload.
func runChild(name string, traced bool, seed int64, out string, stderr io.Writer) *Report {
	mode := "0"
	if traced {
		mode = "1"
	}
	reportPath := filepath.Join(out, name+".trace"+mode+".report.json")
	dead := func(err error) *Report {
		fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
		rec, _ := loadRecipe(name)
		defs := endToEnd
		if traced {
			defs = perLayer()
		}
		return &Report{
			Workload: name, RecipeVersion: rec.Version, Seed: seed, Trace: traced,
			CellsAttempted: rec.cells(), CellsFailed: rec.cells(),
			Failures: []string{"child process: " + err.Error()},
			Metrics:  newMetricSet(defs),
		}
	}
	// timeSetupGroup times half of the run's set-up processes.
	var setups []float64
	timeSetupGroup := func() error {
		if traced {
			return nil
		}
		group, err := timeSetups(setupRuns/2, name, seed, out, stderr)
		setups = append(setups, group...)
		return err
	}
	if err := timeSetupGroup(); err != nil {
		return dead(err)
	}
	_ = os.Remove(reportPath) //vet:allow directio a stale report must not pass for this run's
	cmd, err := childCommand(reportPath, name, mode, seed, out, stderr)
	if err != nil {
		return dead(err)
	}
	if err := cmd.Run(); err != nil {
		return dead(err)
	}
	if err := timeSetupGroup(); err != nil {
		return dead(err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return dead(err)
	}
	var rp Report
	if err := json.Unmarshal(data, &rp); err != nil {
		return dead(err)
	}
	if !traced {
		rp.Samples["setup_s"] = setups
		metricSet(rp.Metrics).set("setup_s", slices.Min(setups))
	}
	return &rp
}

// failUnlessSameModel extends the determinism check across processes: the
// two modes of one workload ran the same recipe at the same seed, so their
// rows must hash alike. The reports carry only the hash, not which cell
// moved, so a mismatch fails every cell of the workload.
func failUnlessSameModel(a, b *Report) {
	if a.ModelSHA256 == "" || b.ModelSHA256 == "" || a.ModelSHA256 == b.ModelSHA256 {
		return // a dead child has already failed its cells
	}
	why := fmt.Sprintf("model_sha256 differs between the untraced and the traced process: %.12s vs %.12s", a.ModelSHA256, b.ModelSHA256)
	for _, rp := range []*Report{a, b} {
		rp.CellsFailed = rp.CellsAttempted
		rp.Failures = append(rp.Failures, why)
	}
}

// printReport prints every metric of a report by name with its unit.
func printReport(w io.Writer, rp *Report) {
	mode := fmt.Sprintf("end-to-end, tracing off; times take each cell's fastest repetition; setup_s the fastest of %d processes; the rest medians", len(rp.Samples["setup_s"]))
	if rp.Trace {
		mode = "per-layer, traced repetition + probes"
	}
	fmt.Fprintf(w, "\n== %s (%s; recipe_version %d, seed %d, GOMAXPROCS=%d, n=%d repetitions)\n",
		rp.Workload, mode, rp.RecipeVersion, rp.Seed, rp.GOMAXPROCS, rp.Repetitions)
	names := make([]string, 0, len(rp.Metrics))
	for name := range rp.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rp.Metrics[name]
		fmt.Fprintf(w, "  %-52s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if vs := rp.Samples["wall_s"]; len(vs) > 0 {
		fmt.Fprintf(w, "  %-52s %.4g s\n", "wall time of each repetition", vs)
	}
	fmt.Fprintf(w, "  %-52s %s\n", "model_sha256", rp.ModelSHA256)
	fmt.Fprintf(w, "  %-52s %16d\n  %-52s %16d\n", "cells_attempted", rp.CellsAttempted, "cells_failed", rp.CellsFailed)
	for _, f := range rp.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// resultLine renders a report as the one-object result the benchmark
// driver reads from the last line of standard output.
func resultLine(rp *Report) string {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{rp.CellsFailed == 0, rp.CellsAttempted, rp.CellsFailed, rp.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644) //vet:allow directio the benchmark writes its own ledger
}
