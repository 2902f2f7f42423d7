package vet

import "go/ast"

// wallFuncs is the wall-clock package API: reading the clock or
// scheduling against it. Methods on time.Time / time.Timer values are
// not matched (t.After(u) is arithmetic, not a clock read). Since and
// Until go beyond the retired grep: both read time.Now internally.
var wallFuncs = []string{
	"Now", "Sleep", "After", "Tick", "NewTicker", "NewTimer", "AfterFunc",
	"Since", "Until",
}

// Walltime enforces the determinism contract's source-level rule (PR 6):
// production code never reads the wall clock or schedules against it
// directly — all time flows through internal/clock so runs stay
// CPU-bound and bit-deterministic. Unlike the retired
// lint-walltime.sh grep, it matches the resolved `time` package object,
// so aliased imports (`import wt "time"`), dot imports, and re-exported
// wrappers are caught.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "flags direct time.Now/Sleep/After/Tick/NewTicker/NewTimer/AfterFunc/Since/Until calls outside " +
		"internal/clock; route time through the injected *clock.AutoVirtual (determinism contract)",
	Run: runWalltime,
}

func runWalltime(pass *Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgFuncCall(pass.TypesInfo, call, "time", wallFuncs...); ok {
				pass.Reportf(call.Pos(),
					"direct wall-clock use: time.%s; route time through the injected *clock.AutoVirtual (or clock.Walltime for sanctioned wall reads)", name)
			}
			return true
		})
	}
	return nil, nil
}
