package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"

	"github.com/coconut-bench/coconut/internal/experiments"
)

// recipeFS holds the four frozen workloads. They are embedded, and their
// scenarios are inlined JSON rather than registry names, so neither the
// working directory nor a registry edit can silently change the benchmark.
//
//go:embed recipes/*.json
var recipeFS embed.FS

// workloadNames lists the frozen workloads in ledger order.
var workloadNames = []string{"paper-grid", "chaos-wal", "scale-out", "saturation"}

// RunOptions are a recipe's frozen run conditions, the subset of
// experiments.Options the benchmark pins.
type RunOptions struct {
	Scale        float64 `json:"scale"`
	SendSeconds  float64 `json:"sendSeconds"`
	GraceSeconds float64 `json:"graceSeconds"`
	Repetitions  int     `json:"repetitions"`
	Nodes        int     `json:"nodes"`
	Time         string  `json:"time"`
	Netem        bool    `json:"netem"`
}

// Recipe is one frozen workload: run conditions plus the scenarios one
// repetition executes, in order. Changing any field bumps Version and
// starts a new series in the ledger.
type Recipe struct {
	Version int        `json:"recipe_version"`
	Name    string     `json:"name"`
	Why     string     `json:"why"`
	Options RunOptions `json:"options"`
	// TimedRepetitions is how many times a -trace 0 run repeats the recipe.
	// It is part of the recipe, so it is the same on both sides of a
	// comparison and never follows the host's speed or a time budget: the
	// time metrics take each cell's fastest repetition, and a side that ran
	// more of them would read lower for that alone.
	TimedRepetitions int               `json:"timedRepetitions"`
	Scenarios        []json.RawMessage `json:"scenarios"`
	// Rows is the number of cells each scenario must expand to.
	Rows []int `json:"rows"`

	scenarios []experiments.Scenario
}

// parseRecipe decodes a recipe and every inlined scenario, rejecting
// unknown fields at both levels.
func parseRecipe(data []byte) (*Recipe, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Recipe
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("parse recipe: %w", err)
	}
	if r.Version < 1 || r.Name == "" || r.TimedRepetitions < 1 || len(r.Scenarios) == 0 || len(r.Rows) != len(r.Scenarios) {
		return nil, fmt.Errorf("recipe %q: need recipe_version >= 1, a name, timedRepetitions >= 1, and one rows entry per scenario", r.Name)
	}
	for i, raw := range r.Scenarios {
		sc, err := experiments.ParseScenario(raw)
		if err != nil {
			return nil, fmt.Errorf("recipe %q scenario %d: %w", r.Name, i, err)
		}
		r.scenarios = append(r.scenarios, sc)
	}
	return &r, nil
}

// loadRecipe reads one of the embedded frozen recipes.
func loadRecipe(name string) (*Recipe, error) {
	data, err := recipeFS.ReadFile("recipes/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return parseRecipe(data)
}

// cells is the number of cells one repetition runs.
func (r *Recipe) cells() int {
	n := 0
	for _, c := range r.Rows {
		n += c
	}
	return n
}

// options builds the engine options for one repetition. tracing is decided
// by the caller; the recipe only pins the run conditions.
func (r *Recipe) options(seed int64) experiments.Options {
	o := r.Options
	return experiments.Options{
		Scale:        o.Scale,
		SendSeconds:  o.SendSeconds,
		GraceSeconds: o.GraceSeconds,
		Repetitions:  o.Repetitions,
		Nodes:        o.Nodes,
		Time:         o.Time,
		Netem:        o.Netem,
		Seed:         seed,
	}
}
