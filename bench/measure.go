package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"github.com/coconut-bench/coconut/internal/experiments"
)

// Report is one workload's result in one mode: the end-to-end metrics
// (tracing off) or the per-layer metrics (traced repetition and probes).
type Report struct {
	Workload       string   `json:"workload"`
	RecipeVersion  int      `json:"recipe_version"`
	Seed           int64    `json:"seed"`
	Trace          bool     `json:"trace"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	Repetitions    int      `json:"repetitions"`
	CellsAttempted int      `json:"cells_attempted"`
	CellsFailed    int      `json:"cells_failed"`
	Failures       []string `json:"failures,omitempty"`
	// ModelSHA256 fingerprints the canonical Outcome rows; it repeats
	// exactly at equal seeds.
	ModelSHA256 string            `json:"model_sha256"`
	Metrics     map[string]Metric `json:"metrics"`
	// Samples holds the per-repetition (per set-up process for setup_s)
	// values behind each end-to-end metric, so -compare can see the spread.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Spans   []Span               `json:"spans,omitempty"`
}

// measureConfig parameterises one measurement.
type measureConfig struct {
	Load  func() (*Recipe, error)
	Seed  int64
	Trace bool
	// OutDir receives the traced repetition's profiles.
	OutDir string
}

// measure runs one workload in this process under the frozen conditions and
// returns its report. It pins GOMAXPROCS to 1: virtual time runs exactly one
// goroutine at a time by construction, so a second P only adds goroutine
// hand-off across OS threads (the cost is still recorded, ungated, as
// runtime.mp_handoff_ratio).
func measure(cfg measureConfig) (*Report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if cfg.Trace {
		return measureLayers(cfg)
	}
	return measureEndToEnd(cfg)
}

// measureEndToEnd reports every end-to-end metric but setup_s, which only
// the parent can time: it ends where this function's first repetition starts
// and begins before this process exists.
func measureEndToEnd(cfg measureConfig) (*Report, error) {
	rec, err := setup(cfg.Load, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reps := make([]*repetition, rec.TimedRepetitions)
	for i := range reps {
		if reps[i], err = runRepetition(rec, cfg.Seed, nil); err != nil {
			return nil, err
		}
	}

	samples := map[string][]float64{}
	tx := reps[0].simTx()
	for _, rep := range reps {
		total, slowest := rep.cellWalls()
		samples["wall_s"] = append(samples["wall_s"], total)
		samples["tx_per_wall_s"] = append(samples["tx_per_wall_s"], tx/total)
		samples["slowest_cell_s"] = append(samples["slowest_cell_s"], slowest)
		samples["allocs_per_tx"] = append(samples["allocs_per_tx"], float64(rep.Mallocs)/tx)
		samples["bytes_per_tx"] = append(samples["bytes_per_tx"], float64(rep.Bytes)/tx)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], rep.PeakRSSMB)
	}

	// The counts and the memory are the median repetition's; the three
	// times are built from each cell's fastest repetition (fastestCells).
	ms := newMetricSet(endToEnd)
	for name, vs := range samples {
		ms.set(name, median(vs))
	}
	// Two repetitions have no median one, and on scale-out, the recipe that
	// has two, a repetition's peak is bimodal: 82-88 MB, or 109-111 MB when
	// a GC cycle starts just after the largest cell's allocation burst
	// instead of just before. The mean of such a pair reads 85, 97 or 109;
	// the smaller of the two reads the common mode in six runs of seven.
	if rss := samples["peak_rss_mb"]; len(rss) == 2 {
		ms.set("peak_rss_mb", slices.Min(rss))
	}
	total, slowest := fastestCells(reps)
	ms.set("wall_s", total)
	ms.set("tx_per_wall_s", tx/total)
	ms.set("slowest_cell_s", slowest)
	rp := newReport(cfg, rec, reps, ms)
	rp.Samples = samples
	return rp, nil
}

// setup is everything a measuring process does before its first timed
// repetition: load and validate the recipe, then run the warm-up cell.
func setup(load func() (*Recipe, error), seed int64) (*Recipe, error) {
	rec, err := load()
	if err != nil {
		return nil, err
	}
	if err := warmUp(rec, seed); err != nil {
		return nil, err
	}
	return rec, nil
}

func measureLayers(cfg measureConfig) (*Report, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil { //vet:allow directio the benchmark writes its own profiles
		return nil, err
	}
	rec, err := setup(cfg.Load, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sr := &recorder{}
	root := sr.start("workload:"+rec.Name, 0)

	plain, err := runRepetition(rec, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}

	// The traced repetition: a CPU profile around it, heap-profile
	// snapshots on either side, and one span per cell from the engine's
	// progress events.
	prefix := filepath.Join(cfg.OutDir, rec.Name)
	heap0, heap1, cpu := prefix+".heap0.prof", prefix+".heap1.prof", prefix+".cpu.prof"
	if err := writeHeapProfile(heap0); err != nil {
		return nil, err
	}
	cpuFile, err := os.Create(cpu) //vet:allow directio the benchmark writes its own profiles
	if err != nil {
		return nil, err
	}
	defer cpuFile.Close()
	gc0 := gcCPUSeconds()
	repSpan := sr.start("repetition:traced", root)
	var cellSpans []int
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		return nil, err
	}
	traced, err := runRepetition(rec, cfg.Seed, func(p experiments.Progress) {
		if p.Result == nil {
			cellSpans = append(cellSpans, sr.start("cell:"+p.Scenario+"/"+p.Cell, repSpan))
		} else {
			sr.end(cellSpans[len(cellSpans)-1])
		}
	})
	pprof.StopCPUProfile()
	sr.end(repSpan)
	if err != nil {
		return nil, err
	}
	gc1 := gcCPUSeconds()
	if err := cpuFile.Close(); err != nil {
		return nil, err
	}
	if err := writeHeapProfile(heap1); err != nil {
		return nil, err
	}

	ms := newMetricSet(perLayer())
	cpuShares, err := foldProfile(cpu, "", "", "ns")
	if err != nil {
		return nil, err
	}
	allocShares, err := foldProfile(heap1, heap0, "alloc_space", "B")
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		ms.set(l+".cpu_pct", cpuShares[l])
		ms.set(l+".alloc_pct", allocShares[l])
	}

	cellWalls(traced, sr, cellSpans, ms)
	ms.set("runtime.gc_cycles", float64(traced.GCCycles))
	ms.set("runtime.gc_cpu_pct", 100*(gc1.gc-gc0.gc)/(gc1.total-gc0.total))
	ms.set("runtime.trace_overhead_pct", 100*(traced.WallS/plain.WallS-1))
	fingerprints(traced, ms)

	for _, p := range probes {
		id := sr.start("probe:"+p.name, root)
		vals, err := p.run(cfg.Seed)
		sr.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		for name, v := range vals {
			ms.set(name, v)
		}
	}

	if rec.Name == "chaos-wal" {
		id := sr.start("probe:runtime.mp_handoff", root)
		ratio, err := mpHandoffRatio(rec, cfg.Seed)
		sr.end(id)
		if err != nil {
			return nil, err
		}
		ms.set("runtime.mp_handoff_ratio", ratio)
	}
	sr.end(root)

	rp := newReport(cfg, rec, []*repetition{plain, traced}, ms)
	rp.Spans = sr.spans
	return rp, nil
}

// newReport checks the repetitions' cells and assembles the report.
func newReport(cfg measureConfig, rec *Recipe, reps []*repetition, ms metricSet) *Report {
	rp := &Report{
		Workload:       rec.Name,
		RecipeVersion:  rec.Version,
		Seed:           cfg.Seed,
		Trace:          cfg.Trace,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Repetitions:    len(reps),
		CellsAttempted: rec.cells(),
		ModelSHA256:    modelSHA256(reps[len(reps)-1]),
		Metrics:        ms,
	}
	for i, why := range checkCells(reps, rec.Options.SendSeconds*rec.Options.Scale) {
		if why != "" {
			rp.CellsFailed++
			c := reps[0].Cells[i]
			rp.Failures = append(rp.Failures, c.Scenario+"/"+c.Label+": "+why)
		}
	}
	return rp
}

// cellWalls derives the cell-span metrics: each cell's span is added to the
// wall time of its system and, where the catalogue has a metric for them,
// of its benchmark, its scenario and its node count.
func cellWalls(rep *repetition, sr *recorder, cellSpans []int, ms metricSet) {
	add := func(name string, seconds float64) {
		if m, ok := ms[name]; ok {
			m.Value += seconds
			ms[name] = m
		}
	}
	var sim, wall float64
	for i, c := range rep.Cells {
		s := sr.get(cellSpans[i]).Seconds()
		add("experiments.cell_wall_s."+slugOf(systemSlugs, c.Row.System), s)
		add("experiments.bench_wall_s."+slugOf(benchSlugs, c.Row.Benchmark), s)
		add("experiments.scenario_wall_s."+c.Scenario, s)
		add("experiments.nodes_wall_s.n"+strconv.Itoa(c.Row.Nodes), s)
		sim += c.SimS
		wall += c.WallS
	}
	ms.set("experiments.sim_speedup", sim/wall)
}

// mpHandoffRatio runs the recipe's first scenario once at the box's default
// GOMAXPROCS and once at 1: the price of handing the single runnable actor
// across OS threads.
func mpHandoffRatio(rec *Recipe, seed int64) (float64, error) {
	first := *rec
	first.scenarios, first.Rows = rec.scenarios[:1], rec.Rows[:1]
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	multi, err := runRepetition(&first, seed, nil)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return 0, err
	}
	single, err := runRepetition(&first, seed, nil)
	if err != nil {
		return 0, err
	}
	return multi.WallS / single.WallS, nil
}

// writeHeapProfile snapshots the cumulative allocation profile.
func writeHeapProfile(path string) error {
	runtime.GC()              // flush the last cycle's samples into the profile
	f, err := os.Create(path) //vet:allow directio the benchmark writes its own profiles
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		return err
	}
	return f.Close()
}

// cpuSeconds is the runtime's own CPU accounting.
type cpuSeconds struct{ gc, total float64 }

func gcCPUSeconds() cpuSeconds {
	s := []runtimemetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtimemetrics.Read(s)
	return cpuSeconds{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so each repetition reports its own peak. Where the
// kernel offers no reset the mark keeps rising and a repetition reports the
// peak of the process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //vet:allow directio asks the kernel to reset this process's peak-RSS counter
}

// peakRSSMB reads the process's resident-set high-water mark. Where /proc
// is missing it falls back to the memory the Go runtime obtained from the
// OS, so the metric is never 0.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
