package vet

import (
	"go/ast"
	"go/types"
	"strconv"
)

// ActorSpawn keeps the one concurrency regime of the model's packages (all
// of internal/ but this suite). The AutoVirtual clock is one goroutine's
// event loop: everything the model runs is an event called from its
// caller's Sleep, and the clock's own state is plain fields.
//
//   - a go statement starts a second goroutine, which races the loop on
//     that state and whose work the clock never sees, so time can jump
//     while it is still running; work that waits is a clock.Event (or a
//     Loop) that arms its deadline and returns;
//   - a sync.Mutex or RWMutex is never contended on one goroutine, and an
//     event that blocks on one freezes the loop; sync/atomic guards nothing
//     the loop does not already serialise.
var ActorSpawn = &Analyzer{
	Name: "actorspawn",
	Doc: "flags go statements, sync.Mutex/RWMutex and sync/atomic in the model's packages, which run on " +
		"one goroutine's event loop; make concurrent work a clock.Event or Loop and keep its state in plain fields",
	Run: runActorSpawn,
}

func runActorSpawn(pass *Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync/atomic" {
				pass.Reportf(imp.Pos(),
					"sync/atomic in a model package: the model runs on one goroutine's event loop; use plain fields")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in a model package: the model runs on one goroutine's event loop, which a second goroutine races; make it a clock.Event or Loop")
			case *ast.Ident:
				if tn, ok := pass.TypesInfo.Uses[n].(*types.TypeName); ok && tn.Pkg() != nil &&
					tn.Pkg().Path() == "sync" && (tn.Name() == "Mutex" || tn.Name() == "RWMutex") {
					pass.Reportf(n.Pos(),
						"sync.%s in a model package: the model runs on one goroutine's event loop, so it is never contended, "+
							"and blocking on it freezes the loop; drop the lock", tn.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
