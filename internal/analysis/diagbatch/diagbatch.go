// Package diagbatch flags per-item diagnostics calls inside //fmm:hotpath
// functions.
//
// diag.Profile guards its maps with a mutex, so every AddFlops/AddTime/
// AddCounter/Start call is a lock acquisition plus map lookup. Calling it
// once per octant (or worse, once per source point) from a phase body
// serializes the workers on the profile lock. The engine accounts instead in
// each worker's phase ledger (a fixed table in its scratch, written without
// locks) and merges the ledger into the profile once per evaluation via
// Profile.Merge. This analyzer keeps it that way: the phase bodies can
// still reach the engine's profile, so inside a hot function, per-item
// counter calls must be accumulated locally and merged outside the hot
// region (or at coarse granularity with an //fmm:allow diagbatch
// justification).
package diagbatch

import (
	"go/ast"
	"strings"

	"kifmm/internal/analysis"
)

// perItem is the set of diag.Profile methods that take the profile lock per
// item. Merge, which takes it once per batch, is the sanctioned alternative
// and is not listed.
var perItem = map[string]bool{
	"AddFlops":   true,
	"AddTime":    true,
	"AddCounter": true,
	"Start":      true,
}

// Analyzer flags per-item diag counter calls in //fmm:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "diagbatch",
	Doc:  "flags per-item diag.Profile counter calls in //fmm:hotpath functions (accumulate locally, then Profile.Merge)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.HotFuncs(func(fd *ast.FuncDecl, chain []string) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, recv, ok := analysis.PkgFunc(pass.TypesInfo, call)
			if !ok || !perItem[name] {
				return true
			}
			if !isDiagPkg(pkg) || recv != "Profile" {
				return true
			}
			pass.ReportfVia(call.Pos(), chain,
				"per-item diag.Profile.%s in hot path; accumulate locally and merge once with Profile.Merge outside the hot region",
				name)
			return true
		})
	})
	return nil
}

// isDiagPkg matches the real package (kifmm/internal/diag) and fixture
// stubs of it (any import path ending in /diag, or the bare "diag").
func isDiagPkg(pkg string) bool {
	return pkg == "diag" || strings.HasSuffix(pkg, "/diag")
}
