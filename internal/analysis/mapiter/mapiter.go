// Package mapiter flags `range` over maps inside deterministic scope.
//
// Go randomizes map iteration order, so any map range whose effects depend
// on visit order — appending to a message buffer, accumulating floating
// point, building task graphs — makes results differ run to run. That is
// the exact bug class PR 4 fixed ad hoc in the engine's FFT V-list pass
// (level buckets were visited in map order, perturbing the flop-accumulation
// order), and the one the distributed layers must never reintroduce: the
// task graph is bit-identical at every worker count, and to its sequential
// test oracle, only because every accumulation order is fixed.
//
// Scope: functions annotated //fmm:deterministic and every function of a
// package whose package clause carries the marker (kifmm, reduce, dtree,
// octree, morton). One shape is exempt: a loop that only collects keys or
// values into slices which are subsequently sorted in the same function —
// the standard deterministic-iteration idiom.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"kifmm/internal/analysis"
)

// Analyzer flags unordered map iteration in deterministic scope.
var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc:  "flags range-over-map in //fmm:deterministic scope (sort keys first)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.DetFuncs(func(fd *ast.FuncDecl, chain []string) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedCollect(pass, fd, rs) {
				return true
			}
			pass.ReportfVia(rs.Pos(), chain,
				"range over map in deterministic scope (%s); iterate sorted keys or add //fmm:allow mapiter <reason>",
				fd.Name.Name)
			return true
		})
	})
	return nil
}

// sortedCollect reports whether the range is the exempt collect-then-sort
// idiom: every statement in the loop body is an append into some slice
// (possibly guarded by an if without else), and each such slice is later —
// after the loop — passed to a sorting call (anything in package sort or
// slices, or a function whose name contains "Sort", e.g. morton.SortKeys).
func sortedCollect(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	targets, ok := collectTargets(pass.TypesInfo, rs.Body.List)
	if !ok {
		return false
	}
	for _, obj := range targets {
		if !sortedAfter(pass, fd, rs.End(), obj) {
			return false
		}
	}
	return true
}

// collectTargets returns the objects of slices appended to when the
// statement list consists solely of self-appends (s = append(s, ...)),
// possibly wrapped in else-less if statements.
func collectTargets(info *types.Info, stmts []ast.Stmt) ([]types.Object, bool) {
	var objs []types.Object
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.AssignStmt:
			obj, ok := selfAppend(info, s)
			if !ok {
				return nil, false
			}
			objs = append(objs, obj)
		case *ast.IfStmt:
			if s.Else != nil {
				return nil, false
			}
			// A short-variable init (`if _, ok := seen[k]; !ok`) is part of
			// the idiom; any other init form disqualifies.
			if s.Init != nil {
				if _, isAssign := s.Init.(*ast.AssignStmt); !isAssign {
					return nil, false
				}
			}
			sub, ok := collectTargets(info, s.Body.List)
			if !ok {
				return nil, false
			}
			objs = append(objs, sub...)
		default:
			return nil, false
		}
	}
	return objs, len(objs) > 0
}

// selfAppend matches `x = append(x, ...)` and returns x's object.
func selfAppend(info *types.Info, s *ast.AssignStmt) (types.Object, bool) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 || (s.Tok != token.ASSIGN && s.Tok != token.DEFINE) {
		return nil, false
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil, false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, false
	}
	if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
		return nil, false
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, false
	}
	lobj := objectOf(info, lhs)
	if lobj == nil || objectOf(info, arg0) != lobj {
		return nil, false
	}
	return lobj, true
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o, ok := info.Defs[id]; ok && o != nil {
		return o
	}
	return info.Uses[id]
}

// sortedAfter reports whether, after pos, the function contains a sorting
// call taking obj as an argument.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if !isSortCall(pass.TypesInfo, call) {
			return true
		}
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && objectOf(pass.TypesInfo, id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sorting calls: anything in package sort or slices,
// or any function/method whose name contains "Sort".
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	pkg, name, _, ok := analysis.PkgFunc(info, call)
	if !ok {
		return false
	}
	if pkg == "sort" || pkg == "slices" {
		return true
	}
	return strings.Contains(name, "Sort") || strings.Contains(name, "sort")
}
