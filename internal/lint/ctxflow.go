package lint

import (
	"go/ast"
)

// CtxFlow forbids minting fresh root contexts — context.Background() or
// context.TODO() — in the request-path packages internal/harness,
// internal/service, and internal/pool. PR 7 threaded a context from every
// entry point down to the pool cells so that client disconnects stop cell
// submission and stage timings attribute to the request trace; a root
// context minted mid-path silently detaches everything below it from
// cancellation and tracing (the live finding this rule shipped with: a
// harness sweep driver building its own context.Background() instead of
// taking the caller's). Entry points that genuinely own a fresh lifetime (a CLI
// main, a server's own lifecycle context) either live outside these
// packages or carry a //binelint:ignore with the reason.
//
// Test files are never loaded by the driver, so tests may use
// context.Background() freely.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "request-path packages must thread the caller's context, not mint context.Background()/TODO()",
	Run:  runCtxFlow,
}

// ctxFlowTargets are the request-path package trees, matched as consecutive
// import-path segments.
var ctxFlowTargets = [][]string{
	{"internal", "harness"},
	{"internal", "service"},
	{"internal", "pool"},
}

func runCtxFlow(pass *Pass) {
	targeted := false
	for _, segs := range ctxFlowTargets {
		if pathSegments(pass.Pkg.Path, segs...) {
			targeted = true
			break
		}
	}
	if !targeted {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			for _, name := range []string{"Background", "TODO"} {
				if isPkgFunc(fn, name, "context") {
					pass.Reportf(call.Pos(),
						"context.%s() mints a root context inside a request path; thread the caller's ctx instead (accept a context.Context parameter)",
						name)
				}
			}
			return true
		})
	}
}
