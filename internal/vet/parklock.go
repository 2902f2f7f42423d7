package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ParkLock flags calls that can park on a clock primitive — Gate.Do /
// Commit / Restart, systems.CommitTo, Mailbox.Send, AutoVirtual.Sleep and
// clock.Await — while a sync.Mutex or RWMutex acquired in the same function
// is still held.
// Parking while holding a lock is the re-entrant-deadlock shape fixed
// twice already (gate backlog replay in PR 7, DurableGate latency charging
// in PR 8): the parked actor holds the mutex, the actor that would wake
// it blocks on Lock, and under AutoVirtual the whole run either
// deadlocks or — worse — advances time around the stall.
var ParkLock = &Analyzer{
	Name: "parklock",
	Doc: "flags clock-primitive parking calls while a sync.Mutex/RWMutex acquired in the same function " +
		"is held (re-entrant deadlock shape, PRs 7-8)",
	Run: runParkLock,
}

func runParkLock(pass *Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanParkLock(pass, fd.Body.List, map[string]token.Pos{})
		}
	}
	return nil, nil
}

// scanParkLock walks statements in source order tracking which mutexes
// are held (keyed by the receiver expression's source text). Branch
// bodies get a copy of the held set — an unlock on one path does not
// release the lock on the fall-through path.
func scanParkLock(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.BlockStmt:
			scanParkLock(pass, s.List, copyHeld(held))
		case *ast.IfStmt:
			if s.Init != nil {
				scanExprStmt(pass, s.Init, held)
			}
			scanExprs(pass, held, s.Cond)
			scanParkLock(pass, s.Body.List, copyHeld(held))
			if s.Else != nil {
				scanParkLock(pass, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			scanParkLock(pass, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			scanExprs(pass, held, s.X)
			scanParkLock(pass, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(s, func(n ast.Node) bool {
				if body, ok := n.(*ast.CaseClause); ok {
					scanParkLock(pass, body.Body, copyHeld(held))
					return false
				}
				if body, ok := n.(*ast.CommClause); ok {
					scanParkLock(pass, body.Body, copyHeld(held))
					return false
				}
				return true
			})
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the mutex held for the remainder
			// of the function body, which is exactly what the held set
			// already says; deferred parking runs after the body, out of
			// scope for this function-local check.
			continue
		default:
			scanExprStmt(pass, s, held)
		}
	}
}

func scanExprStmt(pass *Pass, s ast.Stmt, held map[string]token.Pos) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure body executes in its own dynamic context; locks
			// held here are not provably held there.
			return false
		case *ast.CallExpr:
			classifyCall(pass, n, held)
		}
		return true
	})
}

func scanExprs(pass *Pass, held map[string]token.Pos, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		scanExprStmt(pass, &ast.ExprStmt{X: e}, held)
	}
}

func classifyCall(pass *Pass, call *ast.CallExpr, held map[string]token.Pos) {
	info := pass.TypesInfo
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)

	// Package-level clock.Await and systems.CommitTo (the gate's commit
	// path, which Gate.Do and Gate.Commit wrap).
	if sig != nil && sig.Recv() == nil {
		if fn.Pkg() == nil {
			return
		}
		switch path := fn.Pkg().Path(); {
		case isInternalPkg(path, "internal/clock") && fn.Name() == "Await":
			reportPark(pass, call.Pos(), "clock.Await", held)
		case isInternalPkg(path, "internal/systems") && fn.Name() == "CommitTo":
			reportPark(pass, call.Pos(), "systems.CommitTo", held)
		}
		return
	}

	// Mutex bookkeeping: Lock/RLock acquire, Unlock/RUnlock release,
	// keyed by the receiver expression's text (mu, n.mu, ...).
	if named := recvNamed(sig); named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" {
		switch named.Obj().Name() {
		case "Mutex", "RWMutex":
			key := lockKey(call)
			switch fn.Name() {
			case "Lock", "RLock":
				held[key] = call.Pos()
			case "Unlock", "RUnlock":
				delete(held, key)
			}
		}
		return
	}

	// Park-capable primitives.
	_, named := methodCall(info, call)
	if named == nil {
		return
	}
	if fromInternalPkg(named, "internal/clock") {
		switch fn.Name() {
		case "Send", "Sleep":
			reportPark(pass, call.Pos(), named.Obj().Name()+"."+fn.Name(), held)
		}
	}
	if fromInternalPkg(named, "internal/systems") &&
		containsGate(named.Obj().Name()) {
		switch fn.Name() {
		case "Do", "Commit", "Restart":
			reportPark(pass, call.Pos(), named.Obj().Name()+"."+fn.Name(), held)
		}
	}
}

func recvNamed(sig *types.Signature) *types.Named {
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func lockKey(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return types.ExprString(call.Fun)
}

func containsGate(name string) bool {
	for i := 0; i+4 <= len(name); i++ {
		if name[i:i+4] == "Gate" {
			return true
		}
	}
	return false
}

func reportPark(pass *Pass, pos token.Pos, what string, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	// Name one held mutex deterministically (lowest-position lock).
	var key string
	var at token.Pos
	for k, p := range held {
		if key == "" || p < at || (p == at && k < key) {
			key, at = k, p
		}
	}
	pass.Reportf(pos,
		"%s can park while mutex %q (locked at %s) is still held; release the lock before parking (re-entrant deadlock shape, PRs 7-8)",
		what, key, pass.Fset.Position(at))
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}
