package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/experiments"
)

// minPredictedTx is how many confirmations the paper's MTPS must predict
// for a cell's scaled send window before confirming none counts as a
// failure; below it, zero is within what the shortened window can show.
const minPredictedTx = 10

// An operation of the benchmark is one cell. checkCells returns, per cell
// of the recipe, why it failed ("" when it passed): its row differs between
// two repetitions, or the row breaks a model invariant. sendWindowS is the
// simulated length of a cell's send phase.
func checkCells(reps []*repetition, sendWindowS float64) []string {
	if len(reps) == 0 {
		return nil
	}
	failures := make([]string, len(reps[0].Cells))
	for i, c := range reps[0].Cells {
		for r := 1; r < len(reps) && failures[i] == ""; r++ {
			if i >= len(reps[r].Cells) || !bytes.Equal(c.JSON, reps[r].Cells[i].JSON) {
				failures[i] = fmt.Sprintf("row differs between repetition 1 and %d at equal seeds", r+1)
			}
		}
		if failures[i] == "" {
			failures[i] = checkInvariants(c.Row, sendWindowS)
		}
	}
	return failures
}

// checkInvariants returns the first model invariant the row breaks, "" when
// it holds all five.
func checkInvariants(row experiments.OutcomeRow, sendWindowS float64) string {
	res := row.Result
	switch {
	case res.Received.Mean > res.Expected.Mean:
		return fmt.Sprintf("received %.0f > expected %.0f", res.Received.Mean, res.Expected.Mean)
	case res.Valid.Mean > res.Received.Mean:
		return fmt.Sprintf("valid %.0f > received %.0f", res.Valid.Mean, res.Received.Mean)
	case row.Paper != nil && row.Paper.MTPS*sendWindowS >= minPredictedTx && res.Received.Mean < 1:
		return fmt.Sprintf("paper reports %.2f MTPS (%.0f confirmations in the send window) but no transaction confirmed",
			row.Paper.MTPS, row.Paper.MTPS*sendWindowS)
	case row.Faults == "wal-crash" && !strings.Contains(row.WAL, "/snap=") && res.ReplayedRecords.Mean <= 0:
		// With snapshots on, a crash just after a checkpoint rightly
		// replays an empty log; without them the log holds the whole run.
		return "crash cell without snapshots replayed no WAL records"
	}
	if len(res.Stages) > 0 && res.Received.Mean > 0 {
		var sum float64
		for _, st := range res.Stages {
			sum += st.Mean.Mean
		}
		if mfls := res.MFLS.Mean; math.Abs(sum-mfls) > 1e-6*mfls {
			return fmt.Sprintf("stage means sum to %.9fs, MFLS is %.9fs", sum, mfls)
		}
	}
	return ""
}

// modelSHA256 fingerprints a repetition's canonical rows.
func modelSHA256(rep *repetition) string {
	h := sha256.New()
	for _, c := range rep.Cells {
		h.Write(c.JSON)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// medianAPE is the median over rows with a positive paper MTPS of
// |measured - paper| / paper, in percent; ok is false when no row carries a
// reference.
func medianAPE(rows []experiments.OutcomeRow) (pct float64, ok bool) {
	var errs []float64
	for _, r := range rows {
		if r.Paper != nil && r.Paper.MTPS > 0 {
			errs = append(errs, 100*math.Abs(r.Result.MTPS.Mean-r.Paper.MTPS)/r.Paper.MTPS)
		}
	}
	return median(errs), len(errs) > 0
}

// kendallTau is Kendall's tau-b between two equally long series: concordant
// minus discordant pairs over the geometric mean of the pairs untied in
// each series. It is 0 when either series is constant.
func kendallTau(x, y []float64) float64 {
	var conc, disc, tiedX, tiedY float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			dx, dy := x[i]-x[j], y[i]-y[j]
			switch {
			case dx == 0 && dy == 0:
				tiedX++
				tiedY++
			case dx == 0:
				tiedX++
			case dy == 0:
				tiedY++
			case (dx > 0) == (dy > 0):
				conc++
			default:
				disc++
			}
		}
	}
	pairs := float64(len(x)*(len(x)-1)) / 2
	den := math.Sqrt((pairs - tiedX) * (pairs - tiedY))
	if den == 0 {
		return 0
	}
	return (conc - disc) / den
}

// paperRankTau is the mean over benchmarks of Kendall's tau between the
// systems' measured and paper-reported MTPS; ok is false when no row
// carries a reference.
func paperRankTau(rows []experiments.OutcomeRow) (tau float64, ok bool) {
	measured := map[string][]float64{}
	paper := map[string][]float64{}
	var order []string
	for _, r := range rows {
		if r.Paper == nil {
			continue
		}
		if _, seen := measured[r.Benchmark]; !seen {
			order = append(order, r.Benchmark)
		}
		measured[r.Benchmark] = append(measured[r.Benchmark], r.Result.MTPS.Mean)
		paper[r.Benchmark] = append(paper[r.Benchmark], r.Paper.MTPS)
	}
	for _, b := range order {
		tau += kendallTau(measured[b], paper[b])
	}
	if len(order) == 0 {
		return 0, false
	}
	return tau / float64(len(order)), true
}

// fingerprints reads the model's outputs from a repetition's rows into the
// metric set. They repeat exactly under virtual time at a fixed seed.
func fingerprints(rep *repetition, ms metricSet) {
	var rows []experiments.OutcomeRow
	for _, c := range rep.Cells {
		rows = append(rows, c.Row)
	}

	var mtps, received, valid, logBytes, replayed, replayS, refetchS float64
	var mfls, avail, recovery []float64
	stageSum := map[string]float64{}
	stageOps := map[string]float64{}
	gauges := make([][]float64, coconut.NumGauges)
	perSystem := map[string]float64{}
	for _, r := range rows {
		res := r.Result
		mtps += res.MTPS.Mean
		perSystem[r.System] += res.MTPS.Mean
		received += res.Received.Mean
		valid += res.Valid.Mean
		if res.Received.Mean > 0 {
			mfls = append(mfls, res.MFLS.Mean)
		}
		for _, st := range res.Stages {
			stageSum[st.Stage] += st.Mean.Mean * st.Ops.Mean
			stageOps[st.Stage] += st.Ops.Mean
		}
		if !res.Series.Empty() {
			for g := range gauges {
				gauges[g] = append(gauges[g], res.Series.Quantile(g, 0.95))
			}
		}
		if res.Availability.N > 0 {
			avail = append(avail, res.Availability.Mean)
		}
		if res.RecoverySec.N > 0 {
			recovery = append(recovery, res.RecoverySec.Mean)
		}
		logBytes += res.LogBytes.Mean
		replayed += res.ReplayedRecords.Mean
		replayS += res.ReplaySec.Mean
		refetchS += res.RefetchSec.Mean
	}

	ms.set("coconut.mtps_sum", mtps)
	ms.set("coconut.mfls_mean_s", coconut.Summarize(mfls).Mean)
	ms.set("coconut.received_tx", received)
	ms.set("coconut.valid_tx", valid)
	ms.set("coconut.abort_pct", 100*(received-valid)/received)
	for _, st := range stageNames {
		ms.set("coconut.stage_ms."+st, 1000*stageSum[st]/stageOps[st])
	}
	for g, name := range coconut.GaugeNames {
		ms.set("coconut.gauge_p95."+name, coconut.Summarize(gauges[g]).Mean)
	}
	ms.set("coconut.availability_pct", 100*coconut.Summarize(avail).Mean)
	ms.set("coconut.recovery_s", coconut.Summarize(recovery).Mean)
	ms.set("wal.log_bytes", logBytes)
	ms.set("wal.replayed_records", replayed)
	ms.set("wal.replay_s", replayS)
	ms.set("wal.refetch_s", refetchS)
	for _, s := range systemSlugs {
		ms.set("systems.mtps."+s.Slug, perSystem[s.Name])
	}
	if v, ok := medianAPE(rows); ok {
		ms.set("paper_mtps_err_pct", v)
	}
	if v, ok := paperRankTau(rows); ok {
		ms.set("paper_rank_tau", v)
	}
}
