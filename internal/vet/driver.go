package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Policy is the driver-side exemption table: the same exemption lists
// the retired shell lints hard-coded, expressed as per-analyzer
// include/exclude package prefixes so `-include` / `-exclude` flags can
// override them.
type Policy struct {
	// Include limits an analyzer to packages under the listed
	// module-relative path prefixes; empty means the whole module.
	Include map[string][]string
	// Exclude removes packages under the listed prefixes.
	Exclude map[string][]string
}

// DefaultPolicy mirrors the retired shell lints' exemption lists, plus
// the package gates for the three new analyzers.
func DefaultPolicy() *Policy {
	return &Policy{
		Include: map[string][]string{
			// Everything a run executes runs on the clock's event loop.
			ActorSpawn.Name: {"internal"},
		},
		Exclude: map[string][]string{
			// internal/clock is the one sanctioned wall-clock boundary;
			// the analyzers themselves run outside any clock.
			Walltime.Name:   {"internal/clock"},
			ActorSpawn.Name: {"internal/vet"},
			// CLIs write their own output files.
			DirectIO.Name: {"cmd"},
			// The registry/tracer packages own telemetry construction;
			// CLIs are the sanctioned tracer constructors.
			Telemetry.Name: {"internal/trace", "internal/coconut", "cmd"},
			// The workload plane is the sanctioned home for RNG-stream
			// construction.
			GlobalRand.Name: {"internal/workload"},
		},
	}
}

func matchPrefix(rel string, pats []string) bool {
	for _, p := range pats {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// applies reports whether the analyzer runs on the package with the
// given module-relative import path.
func (pol *Policy) applies(analyzer, rel string) bool {
	if pol == nil {
		return true
	}
	if inc := pol.Include[analyzer]; len(inc) > 0 && !matchPrefix(rel, inc) {
		return false
	}
	return !matchPrefix(rel, pol.Exclude[analyzer])
}

// Finding is one diagnostic, resolved to a position and suppression
// state.
type Finding struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
	Reason     string
}

// Suppression is one //vet:allow comment.
type Suppression struct {
	Analyzer string
	Reason   string
	Pos      token.Position
	used     bool
}

// Result is one driver run over a set of packages.
type Result struct {
	Findings []Finding     // all findings, suppressed included, sorted
	Stale    []Suppression // allow comments that matched no finding
	Errors   []string      // malformed suppressions and analyzer errors
}

// Failed reports whether the run should gate CI: any unsuppressed
// finding, stale suppression, or error fails the build.
func (r *Result) Failed() bool {
	for _, f := range r.Findings {
		if !f.Suppressed {
			return true
		}
	}
	return len(r.Stale) > 0 || len(r.Errors) > 0
}

// PolicyApplies reports whether pol runs analyzer on the package with
// the given module-relative import path (exported for tests and the
// driver).
func PolicyApplies(pol *Policy, analyzer, rel string) bool {
	return pol.applies(analyzer, rel)
}

// Counts returns per-analyzer {total, suppressed} finding counts for
// -summary.
func (r *Result) Counts() map[string][2]int {
	counts := make(map[string][2]int, len(Analyzers))
	for _, f := range r.Findings {
		c := counts[f.Analyzer]
		c[0]++
		if f.Suppressed {
			c[1]++
		}
		counts[f.Analyzer] = c
	}
	return counts
}

const allowMarker = "//vet:allow "

// collectSuppressions scans one file's comments for //vet:allow lines.
// Malformed markers (unknown analyzer, missing reason) are reported as
// errors: a suppression that silently fails to parse would un-suppress a
// finding on the next run.
func collectSuppressions(fset *token.FileSet, f *ast.File, res *Result) []*Suppression {
	var out []*Suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, strings.TrimSpace(allowMarker)) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, strings.TrimSpace(allowMarker)))
			pos := fset.Position(c.Pos())
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if AnalyzerByName(name) == nil {
				res.Errors = append(res.Errors,
					fmt.Sprintf("%s: //vet:allow names unknown analyzer %q", pos, name))
				continue
			}
			if reason == "" {
				res.Errors = append(res.Errors,
					fmt.Sprintf("%s: //vet:allow %s has no reason; every suppression must say why", pos, name))
				continue
			}
			out = append(out, &Suppression{Analyzer: name, Reason: reason, Pos: pos})
		}
	}
	return out
}

// RunAnalyzers runs the analyzers over the loaded packages under the
// policy, resolves //vet:allow suppressions, and returns the combined
// result. A nil policy runs everything everywhere (fixture mode).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, pol *Policy) *Result {
	res := &Result{}
	var sups []*Suppression
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.ImportPath, modulePath), "/")
		for _, f := range pkg.Files {
			sups = append(sups, collectSuppressions(pkg.Fset, f, res)...)
		}
		for _, a := range analyzers {
			if !pol.applies(a.Name, rel) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				res.Findings = append(res.Findings, Finding{
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if _, err := a.Run(pass); err != nil {
				res.Errors = append(res.Errors, fmt.Sprintf("%s: analyzer %s: %v", pkg.ImportPath, a.Name, err))
			}
		}
	}

	// A suppression covers findings of its analyzer on its own line or
	// the line directly below (comment-above-statement style).
	for i := range res.Findings {
		f := &res.Findings[i]
		for _, s := range sups {
			if s.Analyzer == f.Analyzer && s.Pos.Filename == f.Pos.Filename &&
				(s.Pos.Line == f.Pos.Line || s.Pos.Line == f.Pos.Line-1) {
				f.Suppressed = true
				f.Reason = s.Reason
				s.used = true
			}
		}
	}
	for _, s := range sups {
		if !s.used {
			res.Stale = append(res.Stale, *s)
		}
	}

	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(res.Stale, func(i, j int) bool {
		a, b := res.Stale[i], res.Stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	sort.Strings(res.Errors)
	return res
}
