package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/coconut-bench/coconut/internal/experiments"
)

func TestRestrictToSystem(t *testing.T) {
	all := experiments.Scenario{Name: "all"}                                          // every system
	pair := experiments.Scenario{Name: "pair", Systems: []string{"Fabric", "Quorum"}} // includes Fabric
	pinned := experiments.Scenario{Name: "pinned", Systems: []string{"Diem"}}         // a paper table's pin

	t.Run("restricts", func(t *testing.T) {
		var notice strings.Builder
		got, err := restrictToSystem([]experiments.Scenario{all, pair}, "Fabric", &notice)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("kept %d scenarios, want 2", len(got))
		}
		for _, sc := range got {
			if !slices.Equal(sc.Systems, []string{"Fabric"}) {
				t.Errorf("%s runs on %v, want [Fabric]", sc.Name, sc.Systems)
			}
		}
		if notice.Len() != 0 {
			t.Errorf("notice %q for scenarios that include the system", notice.String())
		}
		if len(pair.Systems) != 2 {
			t.Errorf("restricting changed the caller's scenario to %v", pair.Systems)
		}
	})

	t.Run("skips a pinned scenario", func(t *testing.T) {
		var notice strings.Builder
		got, err := restrictToSystem([]experiments.Scenario{pinned, all}, "Fabric", &notice)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Name != "all" {
			t.Fatalf("kept %+v, want only the scenario that names no systems", got)
		}
		if msg := notice.String(); !strings.Contains(msg, "skipping pinned") || !strings.Contains(msg, "Diem") {
			t.Errorf("notice = %q, want it to name the skipped scenario and its systems", msg)
		}
	})

	t.Run("none left", func(t *testing.T) {
		var notice strings.Builder
		if got, err := restrictToSystem([]experiments.Scenario{pinned}, "Fabric", &notice); err == nil {
			t.Fatalf("restricting a Diem-only scenario to Fabric returned %+v, want an error", got)
		}
	})
}

func TestResolveScenarios(t *testing.T) {
	dir := t.TempDir()
	write := func(name, spec string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const cell = `"systems":["Fabric"],"benchmarks":["DoNothing"],"params":{"rl":1600,"mm":1000}`

	t.Run("registry name", func(t *testing.T) {
		got, err := resolveScenarios("figure3")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Name != "figure3" {
			t.Fatalf("resolved %+v, want the registry's figure3", got)
		}
	})

	t.Run("spec with a name", func(t *testing.T) {
		path := write("named.json", `{"name":"my-cell",`+cell+`}`)
		got, err := resolveScenarios(" " + path + " ,, table13+14")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Name != "my-cell" || got[1].Name != "table13+14" {
			t.Fatalf("resolved %+v, want my-cell then table13+14", got)
		}
		if !slices.Equal(got[0].Systems, []string{"Fabric"}) {
			t.Fatalf("spec systems = %v, want [Fabric]", got[0].Systems)
		}
	})

	t.Run("spec without a name", func(t *testing.T) {
		path := write("unnamed.json", `{`+cell+`}`)
		got, err := resolveScenarios(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.TrimSuffix(path, ".json"); len(got) != 1 || got[0].Name != want {
			t.Fatalf("resolved %+v, want one scenario named %q after its file", got, want)
		}
	})

	t.Run("unknown name", func(t *testing.T) {
		if got, err := resolveScenarios("figure3,no-such-scenario"); err == nil {
			t.Fatalf("resolved %+v, want an error for the unknown name", got)
		}
		if got, err := resolveScenarios(filepath.Join(dir, "missing.json")); err == nil {
			t.Fatalf("resolved %+v, want an error for the missing spec file", got)
		}
	})
}
