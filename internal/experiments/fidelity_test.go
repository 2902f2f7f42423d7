package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/coconut-bench/coconut/internal/coconut"
)

// fidelityGate is one figure's committed fidelity bounds. Its lists are
// allow-lists that may only shrink: a cell or shape failure missing from a
// list fails the gate, and so does an entry that no longer occurs, which
// asks for its removal.
type fidelityGate struct {
	maxMeanLog2   float64
	disagree      []string // cells whose verdict may be other than agreement
	shapeFailures []string
}

func (g fidelityGate) violations(f FidelitySummary) []string {
	var out []string
	if f.MeanLog2 > g.maxMeanLog2 {
		out = append(out, fmt.Sprintf("mean |log2(model/paper)| %.4f over %d cells exceeds the bound %.3f",
			f.MeanLog2, f.Compared, g.maxMeanLog2))
	}
	var disagree, shapes []string
	for _, v := range disagreeOrder {
		disagree = append(disagree, f.Disagree[v]...)
	}
	for _, c := range f.Shapes {
		if c.Status == ShapeFail {
			shapes = append(shapes, c.Name)
		}
	}
	out = append(out, allowListViolations("disagreeing cell", disagree, g.disagree)...)
	return append(out, allowListViolations("shape failure", shapes, g.shapeFailures)...)
}

// allowListViolations reports every name found that the allow-list lacks,
// and every allow-list entry that was not found.
func allowListViolations(what string, found, allowed []string) []string {
	isFound := make(map[string]bool, len(found))
	for _, n := range found {
		isFound[n] = true
	}
	isAllowed := make(map[string]bool, len(allowed))
	for _, n := range allowed {
		isAllowed[n] = true
	}
	var out []string
	for _, n := range found {
		if !isAllowed[n] {
			out = append(out, fmt.Sprintf("%s %q is not on the allow-list", what, n))
		}
	}
	for _, n := range allowed {
		if !isFound[n] {
			out = append(out, fmt.Sprintf("%s %q no longer occurs: remove %q from the allow-list", what, n, n))
		}
	}
	return out
}

// latencySensitivityTolerance is how far a cell's model Figure 4/Figure 3
// MTPS ratio may sit from the paper's before the cell counts as
// mis-responding to latency.
const latencySensitivityTolerance = 0.15

// latencyDrift compares each cell's response to emulated latency with the
// paper's: the model's Figure 4/Figure 3 MTPS ratio against the paper's,
// over the cells where both figures' model and paper values all ran. It
// returns the cells more than latencySensitivityTolerance apart and the
// number of comparable cells.
func latencyDrift(lan, wan []OutcomeRow) (drifted []string, comparable int) {
	ran := func(row OutcomeRow) bool { v := Compare(row); return v == Agree || v == OffBand }
	wanByCell := make(map[string]OutcomeRow, len(wan))
	for _, row := range wan {
		wanByCell[row.System+" "+row.Benchmark] = row
	}
	for _, l := range lan {
		name := l.System + " " + l.Benchmark
		w, ok := wanByCell[name]
		if !ok || !ran(l) || !ran(w) {
			continue
		}
		comparable++
		model := w.Result.MTPS.Mean / l.Result.MTPS.Mean
		paper := w.Paper.MTPS / l.Paper.MTPS
		if math.Abs(model-paper) > latencySensitivityTolerance {
			drifted = append(drifted, name)
		}
	}
	return drifted, comparable
}

// figure3Gate pins Figure 3 under -time virtual at scale 0.01, seed 42. The
// bound is the measured mean (0.7911) rounded up at the third decimal.
var figure3Gate = fidelityGate{
	maxMeanLog2: 0.792,
	disagree: []string{
		// off-band
		"Corda Enterprise KeyValue-Set",
		"Corda Enterprise KeyValue-Get",
		"Corda Enterprise BankingApp-SendPayment",
		"BitShares BankingApp-SendPayment",
		"BitShares BankingApp-Balance",
		"Quorum BankingApp-SendPayment",
		"Sawtooth BankingApp-SendPayment",
		"Diem KeyValue-Set",
		"Diem KeyValue-Get",
		"Diem BankingApp-CreateAccount",
		"Diem BankingApp-SendPayment",
		"Diem BankingApp-Balance",
		// model failed
		"Corda OS BankingApp-Balance",
		"Corda Enterprise BankingApp-Balance",
	},
	shapeFailures: []string{"BitShares SendPayment collapses"},
}

// figure4Gate pins Figure 4 under -time virtual at scale 0.01, seed 42. The
// bound is the measured mean (1.1141) rounded up at the third decimal.
var figure4Gate = fidelityGate{
	maxMeanLog2: 1.115,
	disagree: []string{
		// off-band
		"Corda Enterprise KeyValue-Set",
		"Corda Enterprise KeyValue-Get",
		"BitShares KeyValue-Set",
		"BitShares KeyValue-Get",
		"BitShares BankingApp-CreateAccount",
		"BitShares BankingApp-SendPayment",
		"BitShares BankingApp-Balance",
		"Fabric DoNothing",
		"Fabric KeyValue-Set",
		"Fabric KeyValue-Get",
		"Fabric BankingApp-CreateAccount",
		"Fabric BankingApp-SendPayment",
		"Fabric BankingApp-Balance",
		"Quorum KeyValue-Set",
		"Quorum BankingApp-CreateAccount",
		"Quorum BankingApp-SendPayment",
		"Sawtooth BankingApp-CreateAccount",
		"Sawtooth BankingApp-SendPayment",
		"Sawtooth BankingApp-Balance",
		"Diem DoNothing",
		// model failed
		"Corda OS BankingApp-Balance",
		"Diem KeyValue-Get",
		"Diem BankingApp-SendPayment",
		"Diem BankingApp-Balance",
		// paper failed
		"Corda Enterprise BankingApp-SendPayment",
	},
	shapeFailures: []string{"BitShares SendPayment collapses"},
}

// latencyDriftAllowed lists the cells whose model responds to Figure 4's
// latency differently from the paper's (see latencyDrift).
var latencyDriftAllowed = []string{
	"BitShares KeyValue-Set",
	"BitShares KeyValue-Get",
	"BitShares BankingApp-CreateAccount",
	"BitShares BankingApp-SendPayment",
	"BitShares BankingApp-Balance",
	"Fabric DoNothing",
	"Fabric KeyValue-Set",
	"Fabric KeyValue-Get",
	"Fabric BankingApp-CreateAccount",
	"Fabric BankingApp-SendPayment",
	"Fabric BankingApp-Balance",
	"Quorum DoNothing",
	"Quorum KeyValue-Set",
	"Quorum BankingApp-CreateAccount",
	"Quorum BankingApp-SendPayment",
	"Sawtooth KeyValue-Get",
	"Sawtooth BankingApp-Balance",
	"Diem DoNothing",
	"Diem KeyValue-Set",
	"Diem BankingApp-CreateAccount",
}

// modelDigestFile holds the SHA-256 of the canonical JSON of Figures 3 and
// 4's rows at scale 0.01, seed 42 on the virtual clock: the model's
// fingerprint.
const modelDigestFile = "testdata/model.sha256"

// modelDigest hashes the two figures' rows as canonical JSON (struct fields
// in declaration order, map keys sorted).
func modelDigest(figure3, figure4 []OutcomeRow) (string, error) {
	b, err := json.Marshal(map[string][]OutcomeRow{"figure3": figure3, "figure4": figure4})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestPaperFidelity is the model's fidelity gate: it runs Figures 3 and 4
// on the virtual clock and holds every fidelity number at or better than
// its committed bound. It also pins the model bit for bit, so a refactor
// that moves any measured number fails here even inside the bounds.
func TestPaperFidelity(t *testing.T) {
	o := Options{Scale: 0.01, Seed: 42}
	run := func(name string) []OutcomeRow {
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := Run(context.Background(), sc, o)
		if err != nil {
			t.Fatal(err)
		}
		return oc.Rows
	}
	lan, wan := run("figure3"), run("figure4")
	for _, fig := range []struct {
		name string
		rows []OutcomeRow
		gate fidelityGate
	}{{"figure3", lan, figure3Gate}, {"figure4", wan, figure4Gate}} {
		f := Fidelity(fig.rows)
		t.Logf("%s: %s", fig.name, f)
		for _, v := range fig.gate.violations(f) {
			t.Errorf("%s: %s", fig.name, v)
		}
	}
	drifted, comparable := latencyDrift(lan, wan)
	t.Logf("latency sensitivity: %d of %d comparable cells drift", len(drifted), comparable)
	for _, v := range allowListViolations("latency-drifting cell", drifted, latencyDriftAllowed) {
		t.Errorf("%s", v)
	}

	// The fingerprint is checked on amd64 only: arm64 fuses multiply-adds,
	// which rounds differently and moves the last bits of the results.
	if runtime.GOARCH != "amd64" {
		t.Logf("model fingerprint not checked on %s", runtime.GOARCH)
		return
	}
	got, err := modelDigest(lan, wan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(modelDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("model fingerprint %s, want %s: the model moved. If that is intended, re-bless it on purpose: "+
			"write the new digest to %s and record the change and its reason in CHANGES.md", got, w, modelDigestFile)
	}
}

// passingGate holds the paper-shaped fake grid, whose model reads 5% above
// the paper in every cell.
var passingGate = fidelityGate{maxMeanLog2: 0.1}

func mutateCell(rows []OutcomeRow, system, bench string, tps float64) []OutcomeRow {
	out := append([]OutcomeRow(nil), rows...)
	for i := range out {
		if out[i].System == system && out[i].Benchmark == bench {
			out[i].Result = fakeResult(coconut.RepetitionResult{TPS: tps, ReceivedNoT: int(tps * 300)})
		}
	}
	return out
}

func TestFidelityGateHoldsPaperShapedGrid(t *testing.T) {
	f := Fidelity(fakeGridRows())
	if v := passingGate.violations(f); len(v) > 0 {
		t.Fatalf("paper-shaped grid fails the gate: %v", v)
	}
	// 40 cells with a paper value; Corda OS KeyValue-Get and SendPayment
	// fail on both sides and count as agreement.
	if f.Compared != 40 || math.Abs(f.MeanLog2-math.Log2(1.05)) > 1e-9 {
		t.Fatalf("compared %d cells at mean %.4f, want 40 at log2(1.05)", f.Compared, f.MeanLog2)
	}
}

func TestFidelityGateFailsOnEachMutation(t *testing.T) {
	grid := fakeGridRows()
	for _, tc := range []struct {
		name string
		rows []OutcomeRow
		gate fidelityGate
		want string
	}{
		{"off-band cell outside the list", mutateCell(grid, "Fabric", "DoNothing", 3000), passingGate,
			`disagreeing cell "Fabric DoNothing" is not on the allow-list`},
		{"model-failed cell outside the list", mutateCell(grid, "Quorum", "KeyValue-Set", 0), passingGate,
			`disagreeing cell "Quorum KeyValue-Set" is not on the allow-list`},
		{"paper-failed cell outside the list", mutateCell(grid, "Corda OS", "KeyValue-Get", 5), passingGate,
			`disagreeing cell "Corda OS KeyValue-Get" is not on the allow-list`},
		{"allow-listed cell that now agrees", grid,
			fidelityGate{maxMeanLog2: 0.1, disagree: []string{"Diem DoNothing"}},
			`remove "Diem DoNothing" from the allow-list`},
		{"shape failure outside the list", mutateCell(grid, "BitShares", "BankingApp-SendPayment", 1500),
			fidelityGate{maxMeanLog2: 1, disagree: []string{"BitShares BankingApp-SendPayment"}},
			`shape failure "BitShares SendPayment collapses" is not on the allow-list`},
		{"mean past its bound", grid, fidelityGate{maxMeanLog2: 0.05}, "exceeds the bound 0.050"},
	} {
		v := strings.Join(tc.gate.violations(Fidelity(tc.rows)), "\n")
		if !strings.Contains(v, tc.want) {
			t.Errorf("%s: violations %q lack %q", tc.name, v, tc.want)
		}
	}
}

func TestFidelityOfEmptyGridSkips(t *testing.T) {
	f := Fidelity(nil)
	for _, c := range f.Shapes {
		if c.Status != ShapeSkip {
			t.Errorf("empty grid: shape check %q is %s, want SKIP", c.Name, c.Status)
		}
	}
	if v := passingGate.violations(f); len(v) > 0 {
		t.Fatalf("empty grid fails the gate: %v", v)
	}
}

func TestLatencyDriftNamesMisrespondingCells(t *testing.T) {
	// The paper's Fabric loses 38% of its DoNothing throughput to latency;
	// a model that loses nothing drifts, one that loses 35% does not.
	lan := []OutcomeRow{
		fakeRow("Fabric", "DoNothing", &PaperRefValues{MTPS: 1461.05}, coconut.RepetitionResult{TPS: 1592, ReceivedNoT: 4800}),
		fakeRow("Quorum", "DoNothing", &PaperRefValues{MTPS: 773.60}, coconut.RepetitionResult{TPS: 800, ReceivedNoT: 2400}),
		fakeRow("Corda OS", "KeyValue-Get", &PaperRefValues{MTPS: 0}, coconut.RepetitionResult{}),
	}
	wan := []OutcomeRow{
		fakeRow("Fabric", "DoNothing", &PaperRefValues{MTPS: 898.78}, coconut.RepetitionResult{TPS: 1592, ReceivedNoT: 4800}),
		fakeRow("Quorum", "DoNothing", &PaperRefValues{MTPS: 605.04}, coconut.RepetitionResult{TPS: 620, ReceivedNoT: 1860}),
		fakeRow("Corda OS", "KeyValue-Get", &PaperRefValues{MTPS: 0}, coconut.RepetitionResult{}),
	}
	drifted, comparable := latencyDrift(lan, wan)
	sort.Strings(drifted)
	if comparable != 2 || strings.Join(drifted, ",") != "Fabric DoNothing" {
		t.Fatalf("drifted %v of %d comparable, want [Fabric DoNothing] of 2", drifted, comparable)
	}
}
