// The binelint driver: repo-specific analyzers over type-checked packages,
// with //binelint:ignore suppression. It has no binary: TestModuleClean runs
// the suite over the whole module inside `go test ./...`. Each analyzer
// codifies an invariant a past PR's review had to catch by hand; the catalog
// lives in EXPERIMENTS.md ("Static analysis").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one rule; Run is called once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer execution: the package under analysis and the report
// sink.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	modRoot string
	rule    string
	out     *[]Finding
}

// Reportf files one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	*p.out = append(*p.out, Finding{
		Rule:    p.rule,
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Finding is one diagnostic.
type Finding struct {
	Rule    string
	File    string // module-relative, slash-separated
	Line    int
	Col     int
	Message string
}

// String renders the finding as file:line: [rule] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Message)
}

// Analyzers returns the full rule suite in catalog order.
func Analyzers() []*Analyzer {
	return []*Analyzer{GoArg, CtxFlow, DetRange}
}

// ignoreDirective is one parsed //binelint:ignore comment.
type ignoreDirective struct {
	rules  []string
	reason string
	pos    token.Pos
	used   bool
}

const ignorePrefix = "binelint:ignore"

// collectIgnores scans a package's comments for //binelint:ignore
// directives, keyed by (file, line). A directive suppresses matching
// findings on its own line (trailing comment) and on the following line
// (standalone comment above the statement). Malformed directives — no rule
// or no reason — are themselves findings: a suppression without a recorded
// why is exactly the reviewer-memory problem binelint exists to fix.
func collectIgnores(modRoot string, fset *token.FileSet, pkgs []*Package, out *[]Finding) map[string]map[int]*ignoreDirective {
	ignores := map[string]map[int]*ignoreDirective{}
	pass := &Pass{Fset: fset, modRoot: modRoot, rule: "binelint", out: out}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, ignorePrefix)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						pass.Reportf(c.Pos(), "malformed ignore directive: want //binelint:ignore <rule[,rule]> <reason>")
						continue
					}
					pos := fset.Position(c.Pos())
					byLine := ignores[pos.Filename]
					if byLine == nil {
						byLine = map[int]*ignoreDirective{}
						ignores[pos.Filename] = byLine
					}
					byLine[pos.Line] = &ignoreDirective{
						rules:  strings.Split(fields[0], ","),
						reason: strings.Join(fields[1:], " "),
						pos:    c.Pos(),
					}
				}
			}
		}
	}
	return ignores
}

func (d *ignoreDirective) matches(rule string) bool {
	for _, r := range d.rules {
		if r == rule {
			return true
		}
	}
	return false
}

// Run executes the analyzers over pkgs and returns the surviving findings,
// sorted by file, line, column, rule. Findings matched by an ignore
// directive are dropped; unused directives are reported (a stale ignore
// hides nothing but misleads every future reader).
func Run(ldr *Loader, pkgs []*Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{Fset: ldr.Fset, modRoot: ldr.ModRoot, rule: a.Name, out: &raw}
		for _, pkg := range pkgs {
			pass.Pkg = pkg
			a.Run(pass)
		}
	}

	var diag []Finding
	ignores := collectIgnores(ldr.ModRoot, ldr.Fset, pkgs, &diag)
	var out []Finding
	for _, f := range raw {
		abs := f.File
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(ldr.ModRoot, filepath.FromSlash(f.File))
		}
		if byLine := ignores[abs]; byLine != nil {
			if d := byLine[f.Line]; d != nil && d.matches(f.Rule) {
				d.used = true
				continue
			}
			if d := byLine[f.Line-1]; d != nil && d.matches(f.Rule) {
				d.used = true
				continue
			}
		}
		out = append(out, f)
	}
	pass := &Pass{Fset: ldr.Fset, modRoot: ldr.ModRoot, rule: "binelint", out: &diag}
	var files []string
	for file := range ignores {
		files = append(files, file)
	}
	sort.Strings(files)
	for _, file := range files {
		for _, d := range ignores[file] {
			if !d.used {
				pass.Reportf(d.pos, "unused ignore directive for %s: nothing to suppress here", strings.Join(d.rules, ","))
			}
		}
	}
	out = append(out, diag...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// ---- shared type/AST helpers used by the analyzers ----

// pathSegments reports whether the slash-separated import path contains
// segs as consecutive segments — "binetrees/internal/harness" and the
// golden package ".../testdata/src/ctxflow/internal/harness" both contain
// {"internal", "harness"}, while "internal/harnessfoo" does not.
func pathSegments(path string, segs ...string) bool {
	parts := strings.Split(path, "/")
	for i := 0; i+len(segs) <= len(parts); i++ {
		match := true
		for j, s := range segs {
			if parts[i+j] != s {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression's callee to the *types.Func it
// invokes (function or method), or nil for builtins, conversions, and calls
// of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgSegs.name
// (receiver-less; pkgSegs matched as consecutive import path segments, so
// both std paths and module-local paths work).
func isPkgFunc(fn *types.Func, name string, pkgSegs ...string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return pathSegments(fn.Pkg().Path(), pkgSegs...)
}
