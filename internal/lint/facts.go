package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// Facts is the whole-module fact layer computed once per Run and shared by
// every analyzer in the pass: an index of every static call site by resolved
// callee, and a constant-value resolver that folds string constants across
// package boundaries. The Loader checks every package in one shared object
// space, so a function is one *types.Func no matter how many packages call
// it. Building the layer is one walk over the analysis set's files — cheaper
// than any single analyzer's own traversal — so the driver computes it
// unconditionally rather than tracking which analyzers ask.
type Facts struct {
	// sites indexes every call expression whose callee resolves statically
	// (f() and x.M(); not calls of function-typed values), wherever it
	// appears: function bodies, func literals, package-level initializers.
	sites map[*types.Func][]CallSite

	// varInit maps a package-level var to its single initializer expression
	// and owning package, for constant folding through var indirection.
	// Vars that are ever reassigned, or declared with multi-value
	// initializers, are absent: their value is not a static fact.
	varInit map[*types.Var]varInit
}

// CallSite is one static call of a resolved function: the package the call
// appears in and the expression.
type CallSite struct {
	Pkg  *Package
	Call *ast.CallExpr
}

type varInit struct {
	pkg  *Package
	expr ast.Expr
}

// NewFacts computes the fact layer over pkgs.
func NewFacts(pkgs []*Package) *Facts {
	f := &Facts{
		sites:   map[*types.Func][]CallSite{},
		varInit: map[*types.Var]varInit{},
	}
	reassigned := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue // var a, b = f(): not a per-name initializer
					}
					for i, name := range vs.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok && v != nil {
							f.varInit[v] = varInit{pkg: pkg, expr: vs.Values[i]}
						}
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn := calleeFunc(pkg.Info, n); fn != nil {
						f.sites[fn] = append(f.sites[fn], CallSite{Pkg: pkg, Call: n})
					}
				case *ast.AssignStmt:
					// Any assignment to a package-level var anywhere in the
					// module voids its initializer as a static fact.
					for _, lhs := range n.Lhs {
						switch x := ast.Unparen(lhs).(type) {
						case *ast.Ident:
							if v, ok := pkg.Info.ObjectOf(x).(*types.Var); ok && v != nil && v.Parent() == pkg.Pkg.Scope() {
								reassigned[v] = true
							}
						case *ast.SelectorExpr:
							// Qualified assignment to another package's var.
							if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
								reassigned[v] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	for v := range reassigned {
		delete(f.varInit, v)
	}
	return f
}

// SitesMatching returns the call sites of every function match reports true
// for, in deterministic position order — how analyzers find "all calls to
// obs.(*Registry).Counter" without holding the object handle.
func (f *Facts) SitesMatching(match func(*types.Func) bool) []CallSite {
	var out []CallSite
	for fn, sites := range f.sites {
		if match(fn) {
			out = append(out, sites...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Call.Pos() < out[j].Call.Pos() })
	return out
}

// StringConst resolves e (an expression in pkg) to its compile-time string
// value, folding across package boundaries: literals and declared constants
// come straight from the type checker; a reference to a package-level var
// with a single never-reassigned initializer resolves through that
// initializer in its own package; string concatenation folds recursively.
// The second result is false when the value is not a static fact.
func (f *Facts) StringConst(pkg *Package, e ast.Expr) (string, bool) {
	return f.stringConst(pkg, e, map[*types.Var]bool{})
}

func (f *Facts) stringConst(pkg *Package, e ast.Expr, visiting map[*types.Var]bool) (string, bool) {
	e = ast.Unparen(e)
	// The type checker already folds constant expressions, including
	// references to constants from other packages.
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return "", false
		}
		l, ok := f.stringConst(pkg, x.X, visiting)
		if !ok {
			return "", false
		}
		r, ok := f.stringConst(pkg, x.Y, visiting)
		if !ok {
			return "", false
		}
		return l + r, true
	case *ast.Ident, *ast.SelectorExpr:
		var obj types.Object
		if id, ok := x.(*ast.Ident); ok {
			obj = pkg.Info.Uses[id]
		} else {
			obj = pkg.Info.Uses[x.(*ast.SelectorExpr).Sel]
		}
		v, ok := obj.(*types.Var)
		if !ok || v == nil || visiting[v] {
			return "", false
		}
		init, ok := f.varInit[v]
		if !ok {
			return "", false
		}
		visiting[v] = true
		defer delete(visiting, v)
		return f.stringConst(init.pkg, init.expr, visiting)
	}
	return "", false
}
