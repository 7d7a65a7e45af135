package lint

import (
	"go/ast"
	"go/types"
)

// DetRange guards the byte-identical-artifact invariant: every rendered
// artifact must be the same byte sequence at any pool width, on any run
// (pinned since PR 1 by the equivalence suites and CI's cold/warm diffs).
// Go randomizes map iteration order, so a map range whose body writes to an
// io.Writer / strings.Builder, or appends to a slice that is then rendered
// without being sorted first, produces a different byte stream on every
// run. The safe shape — used everywhere in the render paths — is: collect
// the keys, sort them, then iterate the sorted slice.
//
// Flagged:
//   - a map range whose body calls fmt.Fprint*/fmt.Print* or a Write*
//     method (Write, WriteString, WriteByte, WriteRune, WriteTo);
//   - a map range whose body appends to a variable declared outside the
//     loop, unless the first later statement in the same block that
//     mentions the variable is a sort.* / slices.* call on it.
//
// Writes into other maps (order-independent folds) are fine and not
// flagged.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc:  "map iteration feeding rendered output must go through a sort",
	Run:  runDetRange,
}

// writeMethods are method names treated as writer writes inside a map range.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteTo": true,
}

func runDetRange(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var stmts []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				stmts = b.List
			case *ast.CaseClause:
				stmts = b.Body
			case *ast.CommClause:
				stmts = b.Body
			default:
				return true
			}
			for i, s := range stmts {
				rs, ok := s.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := pass.Pkg.Info.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				checkMapRange(pass, rs, stmts[i+1:])
			}
			return true
		})
	}
}

// checkMapRange inspects one map-range body; later is the tail of the
// enclosing block after the range statement (where a redeeming sort call
// would live).
func checkMapRange(pass *Pass, rs *ast.RangeStmt, later []ast.Stmt) {
	info := pass.Pkg.Info
	reported := false
	appends := map[*types.Var]bool{} // outside-declared append targets, deduped
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if reported {
				return true
			}
			if fn := calleeFunc(info, x); fn != nil {
				isPrint := fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					(len(fn.Name()) > 5 && fn.Name()[:5] == "Fprin" || len(fn.Name()) > 4 && fn.Name()[:4] == "Prin")
				sig, _ := fn.Type().(*types.Signature)
				isWrite := sig != nil && sig.Recv() != nil && writeMethods[fn.Name()]
				if isPrint || isWrite {
					reported = true
					pass.Reportf(rs.For,
						"map iteration order is nondeterministic: this range over %s calls %s inside the loop, so the rendered bytes differ run to run; iterate sorted keys instead",
						types.ExprString(rs.X), fn.Name())
				}
			}
		case *ast.AssignStmt:
			for li, rhs := range x.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || li >= len(x.Lhs) {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					continue
				}
				if _, isAppend := info.Uses[id].(*types.Builtin); !isAppend || id.Name != "append" {
					continue
				}
				lhs, ok := ast.Unparen(x.Lhs[li]).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.ObjectOf(lhs).(*types.Var)
				if !ok || v == nil {
					continue
				}
				if v.Pos() >= rs.Pos() && v.Pos() < rs.End() {
					continue // loop-local accumulator: scoped to one iteration
				}
				appends[v] = true
			}
		}
		return true
	})
	for v := range appends {
		if !sortedBeforeUse(info, v, later) {
			pass.Reportf(rs.For,
				"map iteration order is nondeterministic: this range over %s appends to %s without a later sort before use; sort %s (sort.Strings/Ints/Slice) before rendering from it",
				types.ExprString(rs.X), v.Name(), v.Name())
		}
	}
}

// sortedBeforeUse reports whether the first statement in later that
// mentions v is a sort.* / slices.* call taking v — the collect-then-sort
// idiom.
func sortedBeforeUse(info *types.Info, v *types.Var, later []ast.Stmt) bool {
	for _, s := range later {
		if !mentions(info, s, v) {
			continue
		}
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return false
		}
		for _, arg := range call.Args {
			if mentionsExpr(info, arg, v) {
				return true
			}
		}
		return false
	}
	return false // never mentioned again in this block: used in outer scope, unsorted
}

func mentions(info *types.Info, s ast.Stmt, v *types.Var) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}

func mentionsExpr(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}
