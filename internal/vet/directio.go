package vet

import "go/ast"

// mutatingOSFuncs is the mutating filesystem API. Reads (os.Open,
// os.ReadFile) are fine and not matched.
var mutatingOSFuncs = []string{
	"Create", "OpenFile", "WriteFile", "Mkdir", "MkdirAll",
	"Remove", "RemoveAll", "Rename", "Truncate",
}

// DirectIO enforces the durability contract's source-level rule (PR 8):
// production code never writes the filesystem directly — durable state
// flows through internal/wal (whose Dir abstraction owns the real
// syscalls), so recovery cost stays modeled, crash truncation stays
// simulable, and runs never block on real disks. Unlike
// the retired lint-directio.sh grep, it matches the resolved `os`
// package object, so aliased or dot imports are caught.
var DirectIO = &Analyzer{
	Name: "directio",
	Doc: "flags direct os mutating filesystem calls outside internal/wal; " +
		"route durable state through internal/wal (durability contract, PR 8)",
	Run: runDirectIO,
}

func runDirectIO(pass *Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgFuncCall(pass.TypesInfo, call, "os", mutatingOSFuncs...); ok {
				pass.Reportf(call.Pos(),
					"direct filesystem write: os.%s; route durable state through internal/wal (or wal.Dir for raw segment I/O)", name)
			}
			return true
		})
	}
	return nil, nil
}
