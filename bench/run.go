package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"

	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/experiments"
)

// warmupScenario is the discarded cell set-up runs before the first timed
// repetition, so lazy initialisation and heap growth are paid in setup_s
// rather than in the first repetition's wall_s.
var warmupScenario = experiments.Scenario{
	Name:       "warm-up",
	Systems:    []string{"Corda OS"},
	Benchmarks: []string{"DoNothing"},
}

// cellRun is one executed cell of a repetition.
type cellRun struct {
	Scenario string
	Label    string
	Row      experiments.OutcomeRow
	// JSON is the canonical encoding of Row, the unit of the determinism
	// check and of model_sha256.
	JSON []byte
	// WallS and SimS are the engine's own timing of the cell: host seconds
	// spent and simulated seconds covered.
	WallS, SimS float64
}

// repetition is one pass over every scenario of a recipe.
type repetition struct {
	WallS    float64
	Mallocs  uint64
	Bytes    uint64
	GCCycles uint32
	// PeakRSSMB is the resident-set high-water mark reached during the
	// repetition.
	PeakRSSMB float64
	Cells     []cellRun
}

// simTx is the number of payloads the simulated clients sent in the
// repetition: a constant of the recipe, so tx_per_wall_s moves only with
// host time.
func (r *repetition) simTx() float64 {
	var tx float64
	for _, c := range r.Cells {
		tx += c.Row.Result.Expected.Mean
	}
	return tx
}

// cellWalls is the sum of the repetition's cell times and the longest of
// them. The sum leaves out what the engine and this program do between
// cells (expansion, encoding the rows), about 1 % of WallS.
func (r *repetition) cellWalls() (total, slowest float64) {
	for _, c := range r.Cells {
		total += c.WallS
		slowest = math.Max(slowest, c.WallS)
	}
	return total, slowest
}

// fastestCells times every cell as its fastest repetition and returns the
// sum of those times and the longest of them. The host's disturbances
// (README, finding 6) come in spells of a fraction of a second to minutes
// and only ever slow a cell, so among a cell's repetitions the fastest is the
// one least disturbed, and a spell has to cover every repetition of a cell
// to reach the result, where it has to cover half a run to move the median
// repetition. Measured on the disturbed host, as the interquartile spread
// over back-to-back runs as a share of their median (best to worst in
// brackets): chaos-wal, 11 runs of four repetitions, median repetition
// 10.3 % (27 %), fastest cells 3.9 % (13 %); paper-grid, 11 runs of four,
// 12.5 % (25 %) against 6.0 % (18 %); saturation, 17 runs of five, 11.0 %
// (24 %) against 3.9 % (10 %).
func fastestCells(reps []*repetition) (total, slowest float64) {
	for i := range reps[0].Cells {
		fastest := reps[0].Cells[i].WallS
		for _, rep := range reps[1:] {
			fastest = math.Min(fastest, rep.Cells[i].WallS)
		}
		total += fastest
		slowest = math.Max(slowest, fastest)
	}
	return total, slowest
}

// warmUp runs the discarded warm-up cell under the recipe's run conditions.
func warmUp(rec *Recipe, seed int64) error {
	if _, err := experiments.Run(context.Background(), warmupScenario, rec.options(seed)); err != nil {
		return fmt.Errorf("warm-up cell: %w", err)
	}
	return nil
}

// runRepetition executes every scenario of the recipe once through the
// public engine API. progress, when set, receives the engine's per-cell
// start and completion events (the traced repetition turns them into
// spans); per-cell wall time is the engine's own, from Outcome.Timings.
func runRepetition(rec *Recipe, seed int64, progress func(experiments.Progress)) (*repetition, error) {
	opts := rec.options(seed)
	opts.Progress = progress

	// Every repetition starts from a collected heap handed back to the OS,
	// so none inherits the previous one's garbage or its resident pages:
	// what the background scavenger had released by now is a matter of
	// timing, and it moved paper-grid's peak RSS between 65 and 92 MB.
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := clock.Walltime()
	rep := &repetition{}
	for i, sc := range rec.scenarios {
		oc, err := experiments.Run(context.Background(), sc, opts)
		if err != nil {
			return nil, err
		}
		if len(oc.Rows) != rec.Rows[i] {
			return nil, fmt.Errorf("scenario %q expanded to %d cells, recipe records %d", sc.Name, len(oc.Rows), rec.Rows[i])
		}
		for j, row := range oc.Rows {
			data, err := json.Marshal(row)
			if err != nil {
				return nil, fmt.Errorf("encode row: %w", err)
			}
			c := cellRun{Scenario: sc.Name, Row: row, JSON: data}
			if j < len(oc.Timings) {
				c.Label = oc.Timings[j].Cell
				c.WallS = oc.Timings[j].WallSeconds
				c.SimS = oc.Timings[j].SimSeconds
			}
			rep.Cells = append(rep.Cells, c)
		}
	}
	rep.WallS = clock.Walltime().Sub(t0).Seconds()
	runtime.ReadMemStats(&m1)
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.Bytes = m1.TotalAlloc - m0.TotalAlloc
	rep.GCCycles = m1.NumGC - m0.NumGC
	rep.PeakRSSMB = peakRSSMB()
	return rep, nil
}

// median returns the middle value (mean of the middle two for an even
// count); 0 for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
