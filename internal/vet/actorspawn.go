package vet

import (
	"go/ast"
	"go/types"
	"strconv"
)

// ActorSpawn keeps the one concurrency regime of the actor packages (all
// of internal/ but the clock and this suite). The AutoVirtual clock hands
// its execution token to one holder at a time — the runner, or an event it
// runs — and advances only when every actor is parked:
//
//   - a go statement starts a goroutine the clock was not told about, so
//     time can jump while that goroutine still has work; work that waits
//     is a clock.Event (or a Loop) that arms its deadline and returns;
//   - a sync.Mutex or RWMutex can never be contended under the token, and
//     an actor that blocks on one held by a parked actor freezes the clock;
//     sync/atomic guards nothing the token does not already serialise.
var ActorSpawn = &Analyzer{
	Name: "actorspawn",
	Doc: "flags go statements, sync.Mutex/RWMutex and sync/atomic in clock-actor packages; " +
		"make concurrent work a clock.Event or Loop and keep its state in plain fields",
	Run: runActorSpawn,
}

func runActorSpawn(pass *Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync/atomic" {
				pass.Reportf(imp.Pos(),
					"sync/atomic in a clock-actor package: actors run one at a time under the clock's token; use plain fields")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in a clock-actor package: the goroutine is invisible to AutoVirtual quiescence; make it a clock.Event or Loop")
			case *ast.Ident:
				if tn, ok := pass.TypesInfo.Uses[n].(*types.TypeName); ok && tn.Pkg() != nil &&
					tn.Pkg().Path() == "sync" && (tn.Name() == "Mutex" || tn.Name() == "RWMutex") {
					pass.Reportf(n.Pos(),
						"sync.%s in a clock-actor package: actors run one at a time under the clock's token, so it is never contended, "+
							"and blocking on it freezes the clock; drop the lock", tn.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
