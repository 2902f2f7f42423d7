package vet_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/coconut-bench/coconut/internal/vet"
	"github.com/coconut-bench/coconut/internal/vet/vettest"
)

// loadSnippet type-checks one synthetic fixture file and runs the full
// suite over it with no policy.
func loadSnippet(t *testing.T, src string) *vet.Result {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := vet.LoadDir(vettest.ModuleRoot(t), dir, "fixture/suppress")
	if err != nil {
		t.Fatalf("loading snippet: %v", err)
	}
	return vet.RunAnalyzers([]*vet.Package{pkg}, vet.Analyzers, nil)
}

func TestAllowSuppressesSameLine(t *testing.T) {
	res := loadSnippet(t, `package fixture

import "time"

func stamp() time.Time {
	return time.Now() //vet:allow walltime stamps the report date, not sim time
}

func leak() {
	time.Sleep(time.Millisecond)
}
`)
	if len(res.Findings) != 2 {
		t.Fatalf("want 2 findings (1 suppressed + 1 live), got %d: %+v", len(res.Findings), res.Findings)
	}
	var suppressed, live int
	for _, f := range res.Findings {
		if f.Suppressed {
			suppressed++
			if f.Reason != "stamps the report date, not sim time" {
				t.Errorf("suppression reason not carried: %q", f.Reason)
			}
		} else {
			live++
		}
	}
	if suppressed != 1 || live != 1 {
		t.Errorf("want 1 suppressed + 1 live, got %d + %d", suppressed, live)
	}
	if !res.Failed() {
		t.Error("live finding must still fail the run")
	}
	if c := res.Counts()["walltime"]; c != [2]int{2, 1} {
		t.Errorf("-summary counts want [2 findings, 1 suppressed], got %v", c)
	}
}

func TestAllowSuppressesLineAbove(t *testing.T) {
	res := loadSnippet(t, `package fixture

import "time"

func stamp() time.Time {
	//vet:allow walltime comment-above placement also counts
	return time.Now()
}
`)
	if len(res.Findings) != 1 || !res.Findings[0].Suppressed {
		t.Fatalf("want 1 suppressed finding, got %+v", res.Findings)
	}
	if res.Failed() {
		t.Error("a fully suppressed run must pass")
	}
	if len(res.Stale) != 0 {
		t.Errorf("suppression matched a finding; stale list must be empty, got %+v", res.Stale)
	}
}

func TestStaleAllowIsAnError(t *testing.T) {
	res := loadSnippet(t, `package fixture

//vet:allow walltime nothing here uses the wall clock anymore
func clean() {}
`)
	if len(res.Findings) != 0 {
		t.Fatalf("fixture should be finding-free, got %+v", res.Findings)
	}
	if len(res.Stale) != 1 {
		t.Fatalf("want 1 stale suppression, got %+v", res.Stale)
	}
	if !res.Failed() {
		t.Error("a stale suppression must fail the run")
	}
}

func TestAllowForOtherAnalyzerDoesNotSuppress(t *testing.T) {
	res := loadSnippet(t, `package fixture

import "time"

func stamp() time.Time {
	return time.Now() //vet:allow directio wrong analyzer named
}
`)
	if len(res.Findings) != 1 || res.Findings[0].Suppressed {
		t.Fatalf("want 1 unsuppressed finding, got %+v", res.Findings)
	}
	if len(res.Stale) != 1 {
		t.Errorf("the mismatched allow is stale, got %+v", res.Stale)
	}
	if !res.Failed() {
		t.Error("run must fail")
	}
}

func TestMalformedAllows(t *testing.T) {
	res := loadSnippet(t, `package fixture

import "time"

func stamp() time.Time {
	return time.Now() //vet:allow walltime
}

//vet:allow frobnicate not a real analyzer
func other() {}
`)
	if len(res.Errors) != 2 {
		t.Fatalf("want 2 errors (missing reason + unknown analyzer), got %+v", res.Errors)
	}
	for _, e := range res.Errors {
		if !strings.Contains(e, "no reason") && !strings.Contains(e, "unknown analyzer") {
			t.Errorf("unexpected error text: %s", e)
		}
	}
	if !res.Failed() {
		t.Error("malformed allows must fail the run")
	}
	// The malformed allow does not suppress.
	if len(res.Findings) != 1 || res.Findings[0].Suppressed {
		t.Errorf("finding must stay live, got %+v", res.Findings)
	}
}

func TestDefaultPolicyExemptions(t *testing.T) {
	pol := vet.DefaultPolicy()
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"walltime", "internal/clock", false},
		{"walltime", "internal/systems", true},
		{"walltime", "cmd/coconut-sweep", true},
		{"directio", "internal/wal", true},
		{"directio", "cmd/coconut-sweep", false},
		{"directio", "internal/coconut", true},
		{"telemetry", "internal/trace", false},
		{"telemetry", "internal/coconut", false},
		{"telemetry", "internal/systems", true},
		{"actorspawn", "internal/consensus/bftcore", true},
		{"actorspawn", "internal/clock", true},
		{"actorspawn", "examples/quickstart", false},
		{"actorspawn", "internal/statestore", true},
		{"actorspawn", "internal/vet", false},
		{"globalrand", "internal/workload", false},
		{"globalrand", "internal/network", true},
		{"maporder", "internal/experiments", true},
	}
	for _, c := range cases {
		if got := vet.PolicyApplies(pol, c.analyzer, c.pkg); got != c.want {
			t.Errorf("applies(%s, %s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}
