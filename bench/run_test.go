package main

import "testing"

// TestFastestCells checks that the time metrics take each cell from its
// own fastest repetition, not every cell from the fastest repetition.
func TestFastestCells(t *testing.T) {
	rep := func(walls ...float64) *repetition {
		r := &repetition{}
		for _, w := range walls {
			r.Cells = append(r.Cells, cellRun{WallS: w})
		}
		return r
	}
	total, slowest := fastestCells([]*repetition{rep(1, 5, 2), rep(3, 4, 1), rep(2, 6, 3)})
	if total != 1+4+1 || slowest != 4 {
		t.Errorf("total %v slowest %v, want 6 and 4", total, slowest)
	}
}
