package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestBenchGaps(t *testing.T) {
	cases := []struct {
		name     string
		siblings []string
		n        int
		want     []int
	}{
		{"contiguous", []string{"BENCH_3.json", "BENCH_4.json", "BENCH_5.json"}, 6, nil},
		{"first report", nil, 3, nil},
		{"rewriting the newest", []string{"BENCH_3.json", "BENCH_4.json"}, 4, nil},
		{"one hole", []string{"BENCH_3.json", "BENCH_5.json"}, 6, []int{4}},
		{"holes up to n", []string{"BENCH_3.json"}, 6, []int{4, 5}},
		{"unordered siblings", []string{"BENCH_7.json", "BENCH_3.json", "BENCH_5.json"}, 8, []int{4, 6}},
		{"other files ignored", []string{"BENCH_3.json", "BENCH_x.json", "bench_4.json", "BENCH_4.json.bak", "README.md"}, 5, []int{4}},
		{"later reports do not count", []string{"BENCH_9.json"}, 4, nil},
	}
	for _, c := range cases {
		if got := benchGaps(c.siblings, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: benchGaps(%v, %d) = %v, want %v", c.name, c.siblings, c.n, got, c.want)
		}
	}
}

func TestCheckBenchSequence(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_3.json", "BENCH_5.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := checkBenchSequence(filepath.Join(dir, "BENCH_6.json"))
	if err == nil || !strings.Contains(err.Error(), "missing BENCH_4.json") {
		t.Fatalf("writing BENCH_6 over a hole at 4: err = %v, want it to name BENCH_4.json", err)
	}
	if err := checkBenchSequence(filepath.Join(dir, "BENCH_4.json")); err != nil {
		t.Fatalf("filling the hole must be allowed: %v", err)
	}
	if err := checkBenchSequence(filepath.Join(dir, "report.json")); err != nil {
		t.Fatalf("a non-BENCH output name is exempt: %v", err)
	}
}
