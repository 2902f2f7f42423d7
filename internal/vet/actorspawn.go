package vet

import "go/ast"

// ActorSpawn flags every go statement in the clock-actor packages
// (consensus engines, system drivers, transport, runner, fault injector).
// The AutoVirtual clock advances only when every
// registered actor is parked; a goroutine it was not told about is
// invisible to it, so time can jump while that goroutine still has work.
// clock.Go is the one way to start an actor: it announces the wave,
// registers each goroutine and closes its handle.
var ActorSpawn = &Analyzer{
	Name: "actorspawn",
	Doc:  "flags go statements in clock-actor packages; start actors with clock.Go",
	Run:  runActorSpawn,
}

func runActorSpawn(pass *Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(gs.Pos(),
					"go statement in a clock-actor package: the goroutine is invisible to AutoVirtual quiescence; start it with clock.Go")
			}
			return true
		})
	}
	return nil, nil
}
