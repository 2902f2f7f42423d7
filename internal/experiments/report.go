package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"github.com/coconut-bench/coconut/internal/coconut"
)

// WriteReport renders scenario outcomes as one combined EXPERIMENTS.md
// document: a section per outcome, with the section shape chosen from the
// scenario's axes — paper-delta columns for figure and table references, a
// node-count matrix for the scalability reference, availability/recovery
// columns when the fault axis is active, and goodput/abort columns when
// the contention axis is. It replaces the four per-runner markdown
// writers: any outcome the engine can produce, this one function can
// render. The document is built in memory and written once, so w's one
// write is the only call that can fail.
func WriteReport(w io.Writer, outcomes ...*Outcome) error {
	var b strings.Builder
	b.WriteString("# Experiments\n\nGenerated by the scenario engine (`experiments.Run`); see README \"Scenario API\".\n\n")
	for _, oc := range outcomes {
		writeSection(&b, oc)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSection(w *strings.Builder, oc *Outcome) {
	sc := oc.Scenario
	title := sc.Name
	if title == "" {
		title = "scenario"
	}
	fmt.Fprintf(w, "## %s\n\n", title)
	if sc.Description != "" {
		fmt.Fprintf(w, "%s\n\n", sc.Description)
	}

	ref, _ := parsePaperRef(sc.PaperRef)
	switch {
	case ref.kind == refFigure5:
		writeScaleSection(w, oc)
	case ref.heatMap():
		writeFigureSection(w, oc)
	case ref.kind == refTable:
		writeTableSection(w, oc)
	case sc.Workload != nil:
		writeContentionSection(w, oc)
	case sc.Faults != nil || sc.WAL != nil:
		writeFaultSection(w, oc)
	default:
		writePlainSection(w, oc)
	}
	writeStageSection(w, oc)
	writeQueueSection(w, oc)
}

// stageOrder is the pipeline order the stage-breakdown columns render in;
// it mirrors chain.Stage but the report keys by name, since results carry
// stage labels, not enum values.
var stageOrder = []string{"submit", "queue", "consensus", "execute", "validate", "commit"}

// writeStageSection renders the per-system pipeline stage breakdown — the
// mean time a payload spent in each stage, and which stage dominates
// ("bottleneck"). Rendered for any outcome whose rows carry stage data;
// silent otherwise (stage instrumentation is driver-side and always on, so
// only synthetic results lack it).
func writeStageSection(w *strings.Builder, oc *Outcome) {
	if !slices.ContainsFunc(oc.Rows, func(row OutcomeRow) bool { return len(row.Result.Stages) > 0 }) {
		return
	}
	fmt.Fprintln(w, "### Stage breakdown (mean s/payload)")
	fmt.Fprintln(w)
	header, sep := "| System | Cell |", "|---|---|"
	for _, s := range stageOrder {
		header += " " + s + " |"
		sep += "---:|"
	}
	header += " Bottleneck |"
	sep += "---|"
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, sep)
	for _, row := range oc.Rows {
		r := row.Result
		if len(r.Stages) == 0 {
			continue
		}
		byName := make(map[string]coconut.StageResult, len(r.Stages))
		for _, sr := range r.Stages {
			byName[sr.Stage] = sr
		}
		cell := row.Benchmark
		if row.Nodes > 0 {
			cell += fmt.Sprintf(" @%dn", row.Nodes)
		}
		line := fmt.Sprintf("| %s | %s |", row.System, cell)
		for _, s := range stageOrder {
			if sr, ok := byName[s]; ok {
				line += fmt.Sprintf(" %.3f |", sr.Mean.Mean)
			} else {
				line += " — |"
			}
		}
		line += " " + r.Bottleneck + " |"
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)
}

// writeQueueSection renders the windowed queue/resource telemetry — where
// transactions pile up while a cell runs: the hub's in-flight window, the
// nodes' mempool depth, the durable gate's backlog, the WAL's un-synced
// tail, and the transport's in-flight messages, each summarised across the
// cell's timeline windows. Rendered only for outcomes whose rows carry a
// gauge series (a timeline was collected and the driver reports queue
// depths); silent otherwise.
func writeQueueSection(w *strings.Builder, oc *Outcome) {
	if !slices.ContainsFunc(oc.Rows, func(row OutcomeRow) bool { return !row.Result.Series.Empty() }) {
		return
	}
	fmt.Fprintln(w, "### Queue growth (per-window gauge peaks)")
	fmt.Fprintln(w)
	header := "| System | Cell | Windows |"
	sep := "|---|---|---:|"
	for _, g := range coconut.GaugeNames {
		header += " " + g + " p95/max |"
		sep += "---:|"
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, sep)
	for _, row := range oc.Rows {
		s := row.Result.Series
		if s.Empty() {
			continue
		}
		line := fmt.Sprintf("| %s | %s | %d |", row.System, row.Benchmark, len(s))
		for g := 0; g < coconut.NumGauges; g++ {
			line += fmt.Sprintf(" %.0f/%.0f |", s.Quantile(g, 0.95), s.Max(g))
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)
}

// overflowRecv averages the past-horizon confirmation count across the
// repetitions that collected a timeline — the payloads that arrived too
// late for any window ("Late" in the fault tables).
func overflowRecv(r coconut.Result) float64 {
	sum, n := 0.0, 0
	for _, rep := range r.Repetitions {
		if rep.Windows == nil {
			continue
		}
		sum += float64(rep.Overflow.Received)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// writeFigureSection renders paper-vs-measured MTPS rows with the ratio and
// verdict (the Figure 3/4 shape), then the fidelity summary.
func writeFigureSection(w *strings.Builder, oc *Outcome) {
	fmt.Fprintln(w, "| System | Benchmark | Paper MTPS | Measured MTPS | Ratio | Verdict | Received/Expected |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---|---:|")
	for _, row := range oc.Rows {
		paper := 0.0
		if row.Paper != nil {
			paper = row.Paper.MTPS
		}
		fmt.Fprintf(w, "| %s | %s | %.2f | %.2f | %s | %s | %.0f/%.0f |\n",
			row.System, row.Benchmark, paper, row.Result.MTPS.Mean, ratioLabel(row), Compare(row),
			row.Result.Received.Mean, row.Result.Expected.Mean)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, Fidelity(oc.Rows))
}

// writeScaleSection renders the Figure 5 shape: one row per system, one
// column per swept node count, with each cell's verdict against the
// paper's failures. Validate holds a figure5 scenario to DoNothing, so a
// system names its row.
func writeScaleSection(w *strings.Builder, oc *Outcome) {
	nodes := oc.Scenario.Nodes
	cells := make(map[string]map[int]OutcomeRow)
	var order []string
	for _, row := range oc.Rows {
		if cells[row.System] == nil {
			cells[row.System] = make(map[int]OutcomeRow)
			order = append(order, row.System)
		}
		cells[row.System][row.Nodes] = row
	}
	fmt.Fprint(w, "| System |")
	for _, n := range nodes {
		fmt.Fprintf(w, " %d nodes |", n)
	}
	fmt.Fprintf(w, "\n|---|%s\n", strings.Repeat("---:|", len(nodes)))
	for _, system := range order {
		fmt.Fprintf(w, "| %s |", system)
		for _, n := range nodes {
			row, ok := cells[system][n]
			mtps := row.Result.MTPS.Mean
			switch v := Compare(row); {
			case !ok:
				fmt.Fprint(w, " — |")
			case v == BothFailed:
				fmt.Fprint(w, " failed ✓ |")
			case v == Transcribed:
				fmt.Fprint(w, " failed (transcribed) |")
			case v == ModelFailed:
				fmt.Fprint(w, " failed |")
			case v == PaperFailed:
				fmt.Fprintf(w, " %.1f (paper failed) |", mtps)
			default:
				fmt.Fprintf(w, " %.1f |", mtps)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// writeTableSection renders the paper-table shape: parameter rows with
// MTPS, verdict and NoT accounting against the paper's numbers.
func writeTableSection(w *strings.Builder, oc *Outcome) {
	fmt.Fprintln(w, "| Params | Paper MTPS | Measured MTPS | Ratio | Verdict | Paper NoT | Measured NoT |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|---:|---:|")
	for _, row := range oc.Rows {
		var paper PaperRefValues
		if row.Paper != nil {
			paper = *row.Paper
		}
		fmt.Fprintf(w, "| %v | %.2f | %.2f | %s | %s | %.0f/%.0f | %.0f/%.0f |\n",
			row.Params.Labels(), paper.MTPS, row.Result.MTPS.Mean, ratioLabel(row), Compare(row),
			paper.Received, paper.Expected,
			row.Result.Received.Mean, row.Result.Expected.Mean)
	}
	fmt.Fprintln(w)
}

// writeFaultSection renders the chaos shape: availability and both
// recovery clocks (raw confirmations and goodput) per system, plus the
// "Late" column — confirmations that arrived past the timeline's horizon
// and count toward no window (Timeline.Overflow). When the scenario's WAL
// axis is active, the durability columns (replay time, replayed records,
// bytes appended to the logs since provisioning) join the recovery ones;
// plain fault scenarios keep the pre-WAL column set.
func writeFaultSection(w *strings.Builder, oc *Outcome) {
	walActive := oc.Scenario.WAL != nil
	header := "| System | MTPS | MFLS | Availability | Recovery | Goodput recovery | Late | Received/Expected |"
	sep := "|---|---:|---:|---:|---:|---:|---:|---:|"
	if walActive {
		header = "| System | WAL | MTPS | Availability | Recovery | Replay | Replayed | Log bytes | Late | Received/Expected |"
		sep = "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|"
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, sep)
	for _, row := range oc.Rows {
		r := row.Result
		if walActive {
			fmt.Fprintf(w, "| %s | %s | %.2f | %.0f%% | %s | %.4fs | %.0f | %.0f | %.0f | %.0f/%.0f |\n",
				row.System, row.WAL, r.MTPS.Mean, 100*r.Availability.Mean,
				recoveryLabel(r.RecoverySec), r.ReplaySec.Mean, r.ReplayedRecords.Mean,
				r.LogBytes.Mean, overflowRecv(r), r.Received.Mean, r.Expected.Mean)
		} else {
			fmt.Fprintf(w, "| %s | %.2f | %.2fs | %.0f%% | %s | %s | %.0f | %.0f/%.0f |\n",
				row.System, r.MTPS.Mean, r.MFLS.Mean, 100*r.Availability.Mean,
				recoveryLabel(r.RecoverySec), recoveryLabel(r.GoodputRecoverySec),
				overflowRecv(r), r.Received.Mean, r.Expected.Mean)
		}
	}
	fmt.Fprintln(w)
}

// writeContentionSection renders the contention shape; when the fault axis
// is also active (contention-under-chaos) the availability and recovery
// columns join the goodput ones.
func writeContentionSection(w *strings.Builder, oc *Outcome) {
	chaos := oc.Scenario.Faults != nil
	header := "| System | Workload | MTPS | Goodput | Abort rate | MFLS | Conflicts |"
	sep := "|---|---|---:|---:|---:|---:|---|"
	if chaos {
		header = "| System | Workload | MTPS | Goodput | Abort rate | Availability | Recovery | Goodput recovery | Conflicts |"
		sep = "|---|---|---:|---:|---:|---:|---:|---:|---|"
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, sep)
	for _, row := range oc.Rows {
		r := row.Result
		if chaos {
			fmt.Fprintf(w, "| %s | %s | %.2f | %.2f | %.1f%% | %.0f%% | %s | %s | %s |\n",
				row.System, row.Workload, r.MTPS.Mean, r.Goodput.Mean, 100*r.AbortRate.Mean,
				100*r.Availability.Mean, recoveryLabel(r.RecoverySec),
				recoveryLabel(r.GoodputRecoverySec), ConflictSummary(r, 3))
		} else {
			fmt.Fprintf(w, "| %s | %s | %.2f | %.2f | %.1f%% | %.2fs | %s |\n",
				row.System, row.Workload, r.MTPS.Mean, r.Goodput.Mean,
				100*r.AbortRate.Mean, r.MFLS.Mean, ConflictSummary(r, 3))
		}
	}
	fmt.Fprintln(w)
}

// writePlainSection renders scenarios with no paper reference and no
// special axis.
func writePlainSection(w *strings.Builder, oc *Outcome) {
	fmt.Fprintln(w, "| System | Benchmark | MTPS | MFLS | Received/Expected |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|")
	for _, row := range oc.Rows {
		r := row.Result
		fmt.Fprintf(w, "| %s | %s | %.2f | %.2fs | %.0f/%.0f |\n",
			row.System, row.Benchmark, r.MTPS.Mean, r.MFLS.Mean,
			r.Received.Mean, r.Expected.Mean)
	}
	fmt.Fprintln(w)
}

// recoveryLabel renders a mean recovery-time statistic, or "∞" when no
// repetition recovered.
func recoveryLabel(s coconut.Stats) string {
	if s.N == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.2fs", s.Mean)
}

// ConflictSummary renders the top-n conflict reasons of a result as
// "code:meanCount" pairs, most frequent first; "-" when conflict-free.
func ConflictSummary(r coconut.Result, n int) string {
	if len(r.Conflicts) == 0 {
		return "-"
	}
	type kv struct {
		code string
		mean float64
	}
	pairs := make([]kv, 0, len(r.Conflicts))
	for code, st := range r.Conflicts {
		if st.Mean > 0 {
			pairs = append(pairs, kv{code, st.Mean})
		}
	}
	if len(pairs) == 0 {
		return "-"
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].mean != pairs[j].mean {
			return pairs[i].mean > pairs[j].mean
		}
		return pairs[i].code < pairs[j].code
	})
	if n > 0 && len(pairs) > n {
		pairs = pairs[:n]
	}
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = fmt.Sprintf("%s:%.0f", p.code, p.mean)
	}
	return strings.Join(parts, " ")
}
