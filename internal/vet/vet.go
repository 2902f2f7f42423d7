// Package vet is coconut's type-aware static-analysis suite. It replaces
// the three grep-based shell lints (lint-walltime.sh, lint-directio.sh,
// lint-telemetry.sh) with analyzers that see resolved package objects —
// so an aliased import (`import wt "time"`), a dot import, or a vendored
// wrapper cannot slip a wall-clock read past the determinism contract —
// and adds analyzers for hazards grep cannot express at all: unsorted
// map iteration feeding the report/export paths, bare goroutine spawns
// invisible to the AutoVirtual quiescence detector and locks or atomics in
// the packages its token already serialises, and math/rand use outside the
// seeded per-thread RNG-stream contract.
//
// The Analyzer/Pass/Diagnostic types deliberately mirror
// golang.org/x/tools/go/analysis so each analyzer is written in the
// standard idiom and could be mounted on the upstream multichecker
// unchanged; the container build has no network access to fetch x/tools,
// so loading (load.go) and driving (driver.go) are reimplemented on the
// standard library: packages are enumerated with `go list -deps -export
// -json` and type-checked from source against compiler export data.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one analysis pass, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, //vet:allow
	// suppressions, and -summary output.
	Name string

	// Doc is the one-paragraph description: the invariant protected and
	// the PR that introduced it.
	Doc string

	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) (interface{}, error)
}

// Pass carries one type-checked package through an Analyzer's Run,
// mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers is the full coconut-vet suite in the order the driver runs
// it: the three shell-lint ports first, then the three hazards grep could
// not express.
var Analyzers = []*Analyzer{
	Walltime,
	DirectIO,
	Telemetry,
	MapOrder,
	ActorSpawn,
	GlobalRand,
}

// AnalyzerByName resolves a suite member, for //vet:allow validation.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ---- shared object-resolution helpers ----

// calleeFunc resolves the function object a call expression invokes,
// looking through parenthesization. It returns nil for calls that do not
// resolve to a *types.Func (conversions, func-valued variables, builtin
// calls): those cannot be package-API calls and are never lint targets.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	fun := ast.Unparen(call.Fun)
	// An explicitly instantiated generic function: f[T](...), f[T, U](...).
	switch g := fun.(type) {
	case *ast.IndexExpr:
		fun = g.X
	case *ast.IndexListExpr:
		fun = g.X
	}
	switch fn := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function path.name
// (methods never match: a method's receiver makes it a different API —
// time.Time.After is fine where time.After is not).
func isPkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == path
}

// pkgFuncCall reports whether call invokes any of names as a package-level
// function of the package with import path path, resolving through
// aliases and dot imports, and returns the matched name.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, path string, names ...string) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	for _, n := range names {
		if isPkgFunc(fn, path, n) {
			return n, true
		}
	}
	return "", false
}

// methodCall resolves a call to a method and returns the method object
// and the named type it is declared on (nil for interface methods with
// no concrete named receiver resolution).
func methodCall(info *types.Info, call *ast.CallExpr) (*types.Func, *types.Named) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return fn, named
}

// modulePath is the import-path prefix of this module; analyzers match
// internal packages by suffix so they keep working if the module is
// renamed or vendored.
const modulePath = "github.com/coconut-bench/coconut"

// isInternalPkg reports whether path names this module's package with the
// given path suffix (e.g. "internal/clock").
func isInternalPkg(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// fromInternalPkg reports whether named is declared in this module's
// package with the given path suffix (e.g. "internal/clock").
func fromInternalPkg(named *types.Named, suffix string) bool {
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return isInternalPkg(named.Obj().Pkg().Path(), suffix)
}
