package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/coconut-bench/coconut/internal/coconut"
)

// Verdict classifies one outcome row against its paper reference.
type Verdict string

// The verdicts Compare returns. A cell failed when it confirmed nothing:
// the model's Received < 1, the paper's zero MTPS or Failed marker.
const (
	Agree       Verdict = "agree"                // both ran, model within agreeBand of the paper
	OffBand     Verdict = "off-band"             // both ran, model more than agreeBand off
	BothFailed  Verdict = "both failed"          // neither confirmed anything
	Transcribed Verdict = "failed (transcribed)" // both failed, through a threshold copied from the paper
	ModelFailed Verdict = "model failed"         // the paper's cell ran, the model's confirmed nothing
	PaperFailed Verdict = "paper failed"         // the paper's cell failed, the model's confirmed something
	NoReference Verdict = "no reference"         // no paper value to judge against
)

// agreeBand is the largest model/paper MTPS ratio, either way, that counts
// as agreement.
const agreeBand = 1.5

// Compare judges one row against its paper reference.
func Compare(row OutcomeRow) Verdict {
	p := row.Paper
	if p == nil {
		return NoReference
	}
	modelFailed := row.Result.Received.Mean < 1
	paperFailed := p.Failed || (p.MTPS == 0 && !p.failuresOnly)
	switch {
	case modelFailed && paperFailed && p.transcribed:
		return Transcribed
	case modelFailed && paperFailed:
		return BothFailed
	case paperFailed:
		return PaperFailed
	case modelFailed:
		return ModelFailed
	case p.MTPS == 0:
		return NoReference
	}
	if r := row.Result.MTPS.Mean / p.MTPS; r > agreeBand || r < 1/agreeBand {
		return OffBand
	}
	return Agree
}

// ratioLabel renders the row's model/paper MTPS ratio, or "—" when the
// paper gives no MTPS to divide by.
func ratioLabel(row OutcomeRow) string {
	if p := row.Paper; p != nil && p.MTPS > 0 {
		return fmt.Sprintf("%.2fx", row.Result.MTPS.Mean/p.MTPS)
	}
	return "—"
}

// FidelitySummary scores a set of rows against the paper.
type FidelitySummary struct {
	// MeanLog2 is the mean |log2(model/paper MTPS)| over the Compared cells
	// where both the model and the paper ran.
	MeanLog2 float64
	Compared int
	// Disagree names ("System Benchmark") the cells whose verdict does not
	// count as agreement, by verdict.
	Disagree map[Verdict][]string
	// Shapes are the paper's qualitative claims checked on the rows.
	Shapes []ShapeCheck
}

// disagreeOrder is the order verdict lists render in.
var disagreeOrder = []Verdict{OffBand, ModelFailed, PaperFailed, Transcribed}

// Fidelity summarises how the rows' verdicts compare with the paper.
func Fidelity(rows []OutcomeRow) FidelitySummary {
	f := FidelitySummary{Disagree: make(map[Verdict][]string), Shapes: ShapeChecks(rows)}
	sum := 0.0
	for _, row := range rows {
		v := Compare(row)
		if v == Agree || v == OffBand {
			sum += math.Abs(math.Log2(row.Result.MTPS.Mean / row.Paper.MTPS))
			f.Compared++
		}
		if v != NoReference && v != Agree && v != BothFailed {
			f.Disagree[v] = append(f.Disagree[v], row.System+" "+row.Benchmark)
		}
	}
	if f.Compared > 0 {
		f.MeanLog2 = sum / float64(f.Compared)
	}
	return f
}

// String renders the summary as a markdown paragraph with one bullet per
// disagreeing verdict and per failed shape check.
func (f FidelitySummary) String() string {
	s := fmt.Sprintf("Fidelity: mean |log₂(model/paper)| %.2f over %d cells where both ran\n", f.MeanLog2, f.Compared)
	for _, v := range disagreeOrder {
		if names := f.Disagree[v]; len(names) > 0 {
			s += fmt.Sprintf("- %d %s: %s\n", len(names), v, strings.Join(names, ", "))
		}
	}
	for _, c := range f.Shapes {
		if c.Status == ShapeFail {
			s += "- shape check failed: " + c.Name + "\n"
		}
	}
	return s
}

// WriteFidelity writes the fidelity summary of a Figure 3 or Figure 4
// outcome, and nothing for any other outcome.
func WriteFidelity(w io.Writer, oc *Outcome) error {
	if ref, _ := parsePaperRef(oc.Scenario.PaperRef); !ref.heatMap() {
		return nil
	}
	_, err := fmt.Fprintln(w, Fidelity(oc.Rows))
	return err
}

// ShapeStatus is the result of one shape check.
type ShapeStatus string

const (
	ShapePass ShapeStatus = "PASS"
	ShapeFail ShapeStatus = "FAIL"
	ShapeSkip ShapeStatus = "SKIP" // a cell the claim compares was not measured
)

// ShapeCheck is one qualitative claim of the paper's Figure 3, checked on
// measured rows.
type ShapeCheck struct {
	Name   string
	Status ShapeStatus
}

// shapeClaims are the qualitative claims of the paper's Figure 3. Each
// names the cells ("System/Benchmark") it compares and holds when its
// predicate does on their results, given in the same order.
var shapeClaims = []struct {
	name  string
	cells []string
	holds func(r []coconut.Result) bool
}{
	{"BitShares and Fabric lead DoNothing throughput", []string{"BitShares/DoNothing", "Fabric/DoNothing", "Quorum/DoNothing"},
		func(r []coconut.Result) bool {
			return r[0].MTPS.Mean > r[2].MTPS.Mean && r[1].MTPS.Mean > r[2].MTPS.Mean
		}},
	{"Quorum beats Sawtooth", []string{"Quorum/DoNothing", "Sawtooth/DoNothing"}, beats},
	{"Sawtooth beats Corda OS", []string{"Sawtooth/DoNothing", "Corda OS/DoNothing"}, beats},
	{"Corda OS KeyValue-Get fails", []string{"Corda OS/KeyValue-Get"},
		func(r []coconut.Result) bool { return r[0].Received.Mean < 1 }},
	{"Corda Enterprise ~10x Corda OS", []string{"Corda Enterprise/DoNothing", "Corda OS/DoNothing"}, ratioAbove(4)},
	// SendPayment collapses relative to the system's own DoNothing.
	{"BitShares SendPayment collapses", []string{"BitShares/BankingApp-SendPayment", "BitShares/DoNothing"},
		func(r []coconut.Result) bool { return r[1].MTPS.Mean > 0 && r[0].MTPS.Mean/r[1].MTPS.Mean < 0.35 }},
	{"Diem an order of magnitude below Fabric", []string{"Fabric/DoNothing", "Diem/DoNothing"}, ratioAbove(5)},
}

// beats holds when the first cell's MTPS exceeds the second's.
func beats(r []coconut.Result) bool { return r[0].MTPS.Mean > r[1].MTPS.Mean }

// ratioAbove holds when the second cell's MTPS is non-zero and the first's
// is more than factor times it.
func ratioAbove(factor float64) func(r []coconut.Result) bool {
	return func(r []coconut.Result) bool {
		return r[1].MTPS.Mean > 0 && r[0].MTPS.Mean/r[1].MTPS.Mean > factor
	}
}

// ShapeChecks evaluates the qualitative claims of the paper's Figure 3
// against measured outcome rows.
func ShapeChecks(rows []OutcomeRow) []ShapeCheck {
	results := make(map[string]coconut.Result, len(rows))
	for _, row := range rows {
		results[row.System+"/"+row.Benchmark] = row.Result
	}
	out := make([]ShapeCheck, len(shapeClaims))
	for i, c := range shapeClaims {
		out[i] = ShapeCheck{Name: c.name, Status: ShapeFail}
		r := make([]coconut.Result, len(c.cells))
		for j, cell := range c.cells {
			var ok bool
			if r[j], ok = results[cell]; !ok {
				out[i].Status = ShapeSkip
			}
		}
		if out[i].Status != ShapeSkip && c.holds(r) {
			out[i].Status = ShapePass
		}
	}
	return out
}
