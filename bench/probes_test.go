package main

import "testing"

// TestProbes runs every layer probe once: each asserts its own
// postcondition, so a pass means every probe still exercises its layer.
// Together they must report exactly the catalogue's 23 probe metrics.
func TestProbes(t *testing.T) {
	catalogue := map[string]bool{}
	for _, d := range perLayer() {
		catalogue[d.Name] = true
	}
	reported := map[string]bool{}
	for _, p := range probes {
		vals, err := p.run(42)
		if err != nil {
			t.Errorf("probe %s: %v", p.name, err)
			continue
		}
		if len(vals) == 0 {
			t.Errorf("probe %s reports nothing", p.name)
		}
		for name, v := range vals {
			if !catalogue[name] {
				t.Errorf("probe %s reports %s, which is not in the catalogue", p.name, name)
			}
			if reported[name] {
				t.Errorf("%s is reported twice", name)
			}
			reported[name] = true
			if v <= 0 {
				t.Errorf("probe %s: %s = %v, want a positive cost", p.name, name, v)
			}
		}
	}
	if len(reported) != 23 {
		t.Errorf("probes report %d metrics, want 23", len(reported))
	}
}
