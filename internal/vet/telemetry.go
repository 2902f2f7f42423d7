package vet

import (
	"go/ast"
	"go/types"
)

// Telemetry enforces the observability contract's source-level rule
// (PR 9): instrumented packages never mint their own telemetry plane.
// Gauges live in the internal/coconut registry and are sampled by the
// runner's gauge actor; traces come from the single trace.Tracer wired
// through each driver's Config. A second tracer or a hand-built gauge
// series would be unsampled by the runner, invisible to the reports and
// the bench ledger, and a determinism hazard (double-advancing the
// counter-sampled span sequences). Unlike the retired lint-telemetry.sh
// grep, it matches the resolved internal/trace and internal/coconut
// objects, so aliased imports are caught.
var Telemetry = &Analyzer{
	Name: "telemetry",
	Doc: "flags trace.New calls, hand-built coconut.GaugeSeries/GaugeSample literals, and expvar use " +
		"outside the registry/tracer boundary (observability contract, PR 9)",
	Run: runTelemetry,
}

func runTelemetry(pass *Pass) (interface{}, error) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				if fn != nil && fn.Name() == "New" && fn.Pkg() != nil &&
					isInternalPkg(fn.Pkg().Path(), "internal/trace") {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
						pass.Reportf(n.Pos(),
							"second tracer minted with trace.New; traces flow through the one tracer the caller wires into Config.Trace")
					}
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[ast.Expr(n)]
				if !ok {
					return true
				}
				t := tv.Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok && fromInternalPkg(named, "internal/coconut") {
					switch named.Obj().Name() {
					case "GaugeSeries", "GaugeSample":
						pass.Reportf(n.Pos(),
							"hand-built coconut.%s bypasses the gauge registry; gauges are sampled by the runner's gauge actor", named.Obj().Name())
					}
				}
			case *ast.SelectorExpr:
				// Any use of expvar: ad-hoc process-global counters
				// outside the registry.
				if id, ok := n.X.(*ast.Ident); ok {
					if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "expvar" {
						pass.Reportf(n.Pos(),
							"expvar use: ad-hoc process-global telemetry outside the gauge registry")
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
