package main

import (
	"encoding/json"
	"testing"

	"github.com/coconut-bench/coconut/internal/experiments"
)

// TestRecipesExpand checks every frozen recipe parses and expands to its
// recorded cells in its recorded order. The cell list does not depend on
// the time scale, so the expansion runs on a much shortened window.
func TestRecipesExpand(t *testing.T) {
	type ends struct{ first, last string }
	want := map[string]struct {
		rows []int
		ends []ends
	}{
		"paper-grid": {[]int{42}, []ends{{"Corda OS/DoNothing/nodes=4", "Diem/BankingApp-Balance/nodes=4"}}},
		"chaos-wal": {[]int{7, 42}, []ends{
			{"Fabric/smallbank/zipfian:1.10/keys=64/fsync=batch", "BitShares/smallbank/zipfian:1.10/keys=64/fsync=batch"},
			{"Fabric/DoNothing/nodes=4/fsync=always/crash=0.45", "BitShares/DoNothing/nodes=4/fsync=always/snap=64/crash=0.75"},
		}},
		"scale-out":  {[]int{28}, []ends{{"Corda OS/DoNothing/nodes=4", "Diem/DoNothing/nodes=32"}}},
		"saturation": {[]int{7}, []ends{{"Corda OS/KeyValue-Set/nodes=4", "Diem/KeyValue-Set/nodes=4"}}},
	}
	if len(workloadNames) != len(want) {
		t.Fatalf("workloads %v, want %d", workloadNames, len(want))
	}
	for _, name := range workloadNames {
		rec, err := loadRecipe(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := want[name]
		if rec.Version != 1 || rec.Name != name || rec.Why == "" {
			t.Errorf("%s: version %d, name %q, why %q", name, rec.Version, rec.Name, rec.Why)
		}
		if o := rec.Options; o.Time != "virtual" || o.Netem || o.SendSeconds != 300 || o.GraceSeconds != 30 || o.Repetitions != 1 || o.Nodes != 4 {
			t.Errorf("%s: run conditions drifted: %+v", name, o)
		}
		if len(rec.Rows) != len(w.rows) {
			t.Fatalf("%s: %d scenarios, want %d", name, len(rec.Rows), len(w.rows))
		}
		total := 0
		for i, n := range w.rows {
			if rec.Rows[i] != n {
				t.Errorf("%s scenario %d records %d rows, want %d", name, i, rec.Rows[i], n)
			}
			total += n
		}

		rec.Options.Scale, rec.Options.SendSeconds, rec.Options.GraceSeconds = 0.002, 20, 5
		rep, err := runRepetition(rec, 42, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Cells) != total || rec.cells() != total {
			t.Fatalf("%s expands to %d cells (recipe says %d), want %d", name, len(rep.Cells), rec.cells(), total)
		}
		at := 0
		for i, n := range w.rows {
			if got := rep.Cells[at].Label; got != w.ends[i].first {
				t.Errorf("%s scenario %d starts with %q, want %q", name, i, got, w.ends[i].first)
			}
			if got := rep.Cells[at+n-1].Label; got != w.ends[i].last {
				t.Errorf("%s scenario %d ends with %q, want %q", name, i, got, w.ends[i].last)
			}
			at += n
		}
	}
}

// TestChaosWALMatchesRegistry pins the inlined chaos-wal scenarios to the
// registry's of the same names as they are today: a later registry edit
// fails here instead of silently moving either side.
func TestChaosWALMatchesRegistry(t *testing.T) {
	rec, err := loadRecipe("chaos-wal")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range chaosScenarios {
		reg, err := experiments.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(reg)
		got, _ := json.Marshal(rec.scenarios[i])
		if string(got) != string(want) {
			t.Errorf("inlined %s differs from the registry:\n got %s\nwant %s", name, got, want)
		}
	}
}

func TestParseRecipeRejects(t *testing.T) {
	for name, data := range map[string]string{
		"unknown field":     `{"recipe_version":1,"name":"x","timedRepetitions":3,"scenarios":[{}],"rows":[1],"extra":true}`,
		"unknown axis":      `{"recipe_version":1,"name":"x","timedRepetitions":3,"scenarios":[{"sytems":["Fabric"]}],"rows":[1]}`,
		"registry name":     `{"recipe_version":1,"name":"x","timedRepetitions":3,"scenarios":["figure3"],"rows":[42]}`,
		"no version":        `{"name":"x","timedRepetitions":3,"scenarios":[{}],"rows":[1]}`,
		"no repetitions":    `{"recipe_version":1,"name":"x","scenarios":[{}],"rows":[1]}`,
		"rows per scenario": `{"recipe_version":1,"name":"x","timedRepetitions":3,"scenarios":[{},{}],"rows":[1]}`,
	} {
		if _, err := parseRecipe([]byte(data)); err == nil {
			t.Errorf("%s: parseRecipe accepted %s", name, data)
		}
	}
	if _, err := loadRecipe("wan-scale"); err == nil {
		t.Error("loadRecipe accepted a workload that is not frozen")
	}
}
