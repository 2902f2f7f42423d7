package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is how far b is worse than a, in the metric's own unit
// (negative when b is better).
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return a - b
	}
	return b - a
}

// spread is the distance between a side's best and worst run.
func spread(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	lo, hi := samples[0], samples[0]
	for _, v := range samples {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return hi - lo
}

// judge compares a metric's medians and runs on the two sides. The slack is
// the larger of the relative bound (a share of the baseline's median) and
// the absolute one. Where either side's own spread is wider than the slack,
// the medians cannot settle the question: the verdict is unresolved unless
// every run of one side beats every run of the other.
func judge(d metricDef, medA, medB float64, runsA, runsB []float64) string {
	slack := math.Max(d.Bound*math.Abs(medA), d.AbsBound)
	if math.Max(spread(runsA), spread(runsB)) > slack && len(runsA) > 0 && len(runsB) > 0 {
		allBetter, allWorse := true, true
		for _, a := range runsA {
			for _, b := range runsB {
				if w := worsening(d.Better, a, b); w >= 0 {
					allBetter = false
				} else {
					allWorse = false
				}
			}
		}
		switch {
		case allBetter:
			return verdictOK
		case allWorse && worsening(d.Better, medA, medB) > slack:
			return verdictRegressed
		default:
			return verdictUnresolved
		}
	}
	if worsening(d.Better, medA, medB) > slack {
		return verdictRegressed
	}
	return verdictOK
}

// percentChange renders b against a; a zero baseline (a dead child's
// metrics) has no percentage.
func percentChange(a, b float64) string {
	if a == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.2f%%", 100*(b-a)/a)
}

func readLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// report finds a workload's report in one mode.
func (l *Ledger) report(workload string, traced bool) *Report {
	for _, rp := range l.Reports {
		if rp.Workload == workload && rp.Trace == traced {
			return rp
		}
	}
	return nil
}

// compareLedgers prints, per workload and gated metric, both medians, the
// bound and a verdict, then every model fingerprint that differs. It
// reports whether any metric regressed or any fingerprint moved.
func compareLedgers(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "A = %s (seed %d)\nB = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)

	for _, name := range workloadNames {
		ra, rb := a.report(name, false), b.report(name, false)
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s (recipe_version %d vs %d)\n", name, ra.RecipeVersion, rb.RecipeVersion)
		if ra.RecipeVersion != rb.RecipeVersion {
			fmt.Fprintln(w, "  recipe versions differ: a new series, not comparable")
			continue
		}
		if ra.Repetitions != rb.Repetitions {
			// The time metrics take each cell's fastest repetition, so
			// the side with more repetitions would read lower for that
			// alone.
			fmt.Fprintf(w, "  repetitions differ (%d vs %d): not comparable\n", ra.Repetitions, rb.Repetitions)
			continue
		}
		fmt.Fprintf(w, "  %-20s %14s %14s %9s %8s  %s\n", "metric", "A median", "B median", "change", "bound", "verdict")
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			v := judge(d, ma, mb, ra.Samples[d.Name], rb.Samples[d.Name])
			bad = bad || v == verdictRegressed
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %9s %7.0f%%  %s\n", d.Name, ma, mb, percentChange(ma, mb), 100*d.Bound, v)
		}
		if rb.CellsFailed > ra.CellsFailed {
			bad = true
			fmt.Fprintf(w, "  cells_failed %d -> %d: regressed\n", ra.CellsFailed, rb.CellsFailed)
		}
	}

	fmt.Fprintf(w, "\n== paper fidelity (paper-grid, absolute bounds)\n")
	if ra, rb := a.report("paper-grid", true), b.report("paper-grid", true); ra != nil && rb != nil {
		for _, d := range fidelity {
			ma, mb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			v := judge(d, ma, mb, nil, nil)
			bad = bad || v == verdictRegressed
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g   bound %g %s  %s\n", d.Name, ma, mb, d.AbsBound, d.Unit, v)
		}
	}

	fmt.Fprintf(w, "\n== model fingerprints that differ (a harness-only change must leave this empty)\n")
	if a.Seed != b.Seed {
		fmt.Fprintln(w, "  seeds differ: fingerprints are not expected to match")
	}
	layerDefs := perLayer()
	for _, name := range workloadNames {
		ra, rb := a.report(name, true), b.report(name, true)
		if ra == nil || rb == nil {
			continue
		}
		var diffs []string
		if ra.ModelSHA256 != rb.ModelSHA256 {
			diffs = append(diffs, fmt.Sprintf("model_sha256 %.12s -> %.12s", ra.ModelSHA256, rb.ModelSHA256))
		}
		for _, d := range layerDefs {
			if ma, mb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value; d.Fingerprint && ma != mb {
				diffs = append(diffs, fmt.Sprintf("%s %.9g -> %.9g", d.Name, ma, mb))
			}
		}
		sort.Strings(diffs)
		for _, diff := range diffs {
			fmt.Fprintf(w, "  %s: %s\n", name, diff)
		}
		bad = bad || (len(diffs) > 0 && a.Seed == b.Seed)
	}
	return bad, nil
}
