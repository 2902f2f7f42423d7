package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// MapOrder flags the nondeterminism class PR 9's trace exporter and the
// EXPERIMENTS.md writers had to hand-fix: Go map iteration order is
// randomized, so a `range` over a map whose body writes to an io.Writer,
// or collects into a slice that is later JSON-encoded or written without
// an intervening sort, produces byte-different output between otherwise
// identical runs — breaking the bit-determinism contract (PR 6) and the
// CI-gated trace byte-identity check. A map range whose body acts on the
// simulation — sends or registers on the transport, degrades a link,
// triggers or arms a clock event, posts to a loop, crashes or restarts a
// node — makes the model itself run in that random order, as the fault
// injector's restarts of crashed nodes once did. The sanctioned idiom —
// collect keys, sort.* / slices.Sort*, then iterate the sorted slice — is
// recognized and not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags map iteration feeding writers or JSON encoders, or acting on the simulation, " +
		"without sorted keys (byte-identical outputs and runs)",
	Run: runMapOrder,
}

// ioWriter is io.Writer built structurally, so the check works even in
// packages that never import io.
var ioWriter = func() *types.Interface {
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte])))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

// isWriterWrite reports whether call emits bytes to an output stream:
// fmt.Fprint*, io.WriteString, (json.Encoder).Encode, or a
// Write/WriteString/WriteByte/WriteRune method on a value implementing
// io.Writer.
func isWriterWrite(info *types.Info, call *ast.CallExpr) bool {
	// fmt.Print* writes to os.Stdout, which IS the report path for the
	// examples and CLI tables.
	if _, ok := pkgFuncCall(info, call, "fmt",
		"Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println"); ok {
		return true
	}
	if _, ok := pkgFuncCall(info, call, "io", "WriteString"); ok {
		return true
	}
	fn, named := methodCall(info, call)
	if fn == nil {
		return false
	}
	if fn.Name() == "Encode" && named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "encoding/json" && named.Obj().Name() == "Encoder" {
		return true
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	return types.Implements(t, ioWriter) || types.Implements(types.NewPointer(t), ioWriter)
}

// simActions lists, by package and receiver type, the methods through which
// code acts on the simulation: the order of their calls is the order the
// model runs in.
var simActions = []struct {
	pkg, typ string
	methods  []string
}{
	{"internal/network", "Transport", []string{"Send", "SendPort", "Broadcast", "Register", "Unregister", "DegradeLink"}},
	{"internal/clock", "Event", []string{"Trigger", "At", "After", "Every"}},
	{"internal/clock", "Loop", []string{"Post"}},
	{"internal/systems", "Driver", []string{"Submit", "CrashNode", "RestartNode", "ResumeNode"}},
	{"internal/systems", "Cluster", []string{"CrashNode", "RestartNode", "ResumeNode"}},
}

// simAction returns "Type.Method" when call acts on the simulation, else "".
func simAction(info *types.Info, call *ast.CallExpr) string {
	fn, named := methodCall(info, call)
	if fn == nil || named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	for _, a := range simActions {
		if named.Obj().Name() == a.typ && isInternalPkg(named.Obj().Pkg().Path(), a.pkg) &&
			slices.Contains(a.methods, fn.Name()) {
			return a.typ + "." + fn.Name()
		}
	}
	return ""
}

// isJSONEncode reports whether call JSON-encodes one of its arguments.
func isJSONEncode(info *types.Info, call *ast.CallExpr) bool {
	if _, ok := pkgFuncCall(info, call, "encoding/json", "Marshal", "MarshalIndent"); ok {
		return true
	}
	fn, named := methodCall(info, call)
	return fn != nil && fn.Name() == "Encode" && named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "encoding/json" && named.Obj().Name() == "Encoder"
}

// isSortCall reports whether call is any sort.* or slices.Sort* ordering
// function.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

// exprUsesObj reports whether any identifier inside e resolves to obj.
func exprUsesObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// assignedSliceObj returns the object of `s` in `s = append(s, ...)` /
// `s := append(...)` statements, or nil.
func assignedSliceObj(info *types.Info, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fid.Name != "append" || info.Uses[fid] != types.Universe.Lookup("append") {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func runMapOrder(pass *Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body)
		}
	}
	return nil, nil
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}

		var appended []types.Object
		acted := false // one report per range for simulation actions
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if isWriterWrite(info, m) {
					pass.Reportf(rng.For,
						"map iterated in nondeterministic key order while its body writes to an io.Writer; collect the keys, sort them (sort.* / slices.Sort*), and range the sorted slice")
				}
				if action := simAction(info, m); action != "" && !acted {
					acted = true
					pass.Reportf(rng.For,
						"map iterated in nondeterministic key order while its body acts on the simulation (%s); collect the keys, sort them (sort.* / slices.Sort*), and range the sorted slice", action)
				}
			case *ast.AssignStmt:
				if obj := assignedSliceObj(info, m); obj != nil {
					appended = append(appended, obj)
				}
			}
			return true
		})

		// The collect-then-sort idiom: an append target that later flows
		// through a sort call is sanctioned; one that instead reaches a
		// JSON encoder or writer unsorted carries the map's random order
		// into the output bytes.
		for _, obj := range appended {
			sorted, sunk := false, token.NoPos
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || call.Pos() <= rng.End() {
					return true
				}
				argUses := false
				for _, a := range call.Args {
					if exprUsesObj(info, a, obj) {
						argUses = true
						break
					}
				}
				if !argUses {
					return true
				}
				if isSortCall(info, call) {
					sorted = true
				} else if !sorted && (isJSONEncode(info, call) || isWriterWrite(info, call)) && sunk == token.NoPos {
					sunk = call.Pos()
				}
				return true
			})
			if !sorted && sunk != token.NoPos {
				pass.Reportf(rng.For,
					"slice %s collected from a map range is encoded/written without an intervening sort; its element order is the map's random iteration order", obj.Name())
			}
		}
		return true
	})
}
