package clocktest

import (
	"fmt"
	"testing"
	"time"
)

// TestStepsTakeTurnsUntilDone: Steps gives each event its first turn in the
// order of names, goes on at once after a zero wait, keys a positive wait
// under the event's name, and returns at the instant the last one is done.
func TestStepsTakeTurnsUntilDone(t *testing.T) {
	clk := New(t)
	start := clk.Now()
	names := []string{"b", "a"}
	calls := make([]int, len(names))
	var log []string // appended under the execution token
	Steps(t, clk, time.Second, "both done", names, func(i int) (time.Duration, bool) {
		log = append(log, fmt.Sprintf("%s@%v", names[i], clk.Since(start)))
		calls[i]++
		switch calls[i] {
		case 1:
			return 0, false
		case 2:
			return 10 * time.Millisecond, false
		}
		return 0, true
	})
	if want := "[b@0s b@0s a@0s a@0s a@10ms b@10ms]"; fmt.Sprint(log) != want {
		t.Fatalf("steps ran as %v, want %s", log, want)
	}
	if got := clk.Since(start); got != 10*time.Millisecond {
		t.Fatalf("Steps returned at +%v, want +10ms", got)
	}
}
