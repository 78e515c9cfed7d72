// Package locksafe enforces the concurrency invariants of the scheduler,
// MPI shim, and evaluation service.
//
// Three checks, all package-wide (a lock bug is a bug everywhere, not just
// in annotated functions):
//
//   - copylock: a sync.Mutex/RWMutex/WaitGroup/Cond/Once/Pool/Map (or any
//     struct containing one) passed, received, assigned, or ranged-over by
//     value. A copied mutex guards nothing.
//
//   - atomicmix: a struct field accessed both through sync/atomic calls and
//     through plain reads/writes in the same package. Mixed access is a
//     data race even when each side looks locally correct — the bug class
//     the scheduler's task dependency counters had before they moved to
//     atomic.Int32.
//
//   - unlock: an Unlock/RUnlock on a receiver with no preceding
//     Lock/RLock in the same function (in source order). Catches the
//     classic copy-paste of an unlock into the wrong branch.
//
// These analyzers are static complements to the dynamic contract tests:
// internal/sched's TestWorkerIndexExclusive drives a task graph under -race
// to validate the exclusive-worker-index guarantee that lets per-worker
// scratch go lock-free in the first place.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"kifmm/internal/analysis"
)

// Analyzer flags lock copies, atomic/plain mixed access, and unmatched
// unlocks.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "flags mutex copies, atomic/plain mixed field access, and unlock-without-lock",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	checkCopies(pass)
	checkAtomicMix(pass)
	checkUnlocks(pass)
	return nil
}

// ---- copylock ----

// containsLock reports whether t (held by value) embeds synchronization
// state that must not be copied (shared with lockorder via the driver).
func containsLock(t types.Type) bool {
	return analysis.ContainsLock(t)
}

func lockName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func checkCopies(pass *analysis.Pass) {
	analysis.FuncsOf(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Recv != nil {
			for _, f := range fd.Recv.List {
				checkFieldCopy(pass, f, "receiver")
			}
		}
		if fd.Type.Params != nil {
			for _, f := range fd.Type.Params.List {
				checkFieldCopy(pass, f, "parameter")
			}
		}
		if fd.Type.Results != nil {
			for _, f := range fd.Type.Results.List {
				checkFieldCopy(pass, f, "result")
			}
		}
		if fd.Body == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range s.Rhs {
					if i >= len(s.Lhs) {
						break
					}
					// Assigning to _ evaluates but discards the copy.
					if id, isIdent := s.Lhs[i].(*ast.Ident); isIdent && id.Name == "_" {
						continue
					}
					if copiesLock(pass.TypesInfo, rhs) {
						pass.Reportf(rhs.Pos(), "assignment copies lock value of type %s",
							lockName(pass.TypesInfo.TypeOf(rhs)))
					}
				}
			case *ast.RangeStmt:
				if s.Value != nil {
					if t := pass.TypesInfo.TypeOf(s.Value); t != nil && containsLock(t) {
						pass.Reportf(s.Value.Pos(), "range copies lock value of type %s; iterate by index or pointer", lockName(t))
					}
				}
			}
			return true
		})
	})
}

func checkFieldCopy(pass *analysis.Pass, f *ast.Field, kind string) {
	t := pass.TypesInfo.TypeOf(f.Type)
	if t == nil {
		return
	}
	if _, isPtr := t.(*types.Pointer); isPtr {
		return
	}
	if containsLock(t) {
		pass.Reportf(f.Type.Pos(), "%s passes lock by value: %s contains a sync primitive; use a pointer", kind, lockName(t))
	}
}

// copiesLock reports whether evaluating expr yields a by-value copy of
// existing lock-containing state. Fresh values (composite literals, calls)
// are initializations, not copies.
func copiesLock(info *types.Info, expr ast.Expr) bool {
	switch ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false
	}
	t := info.TypeOf(expr)
	return t != nil && containsLock(t)
}

// ---- atomicmix ----

// checkAtomicMix records every struct field whose address is taken inside a
// sync/atomic call, then flags plain (non-atomic) selector accesses to the
// same field object anywhere else in the package.
func checkAtomicMix(pass *analysis.Pass) {
	info := pass.TypesInfo
	atomicFields := make(map[types.Object]string) // field -> atomic func name
	inAtomic := make(map[*ast.SelectorExpr]bool)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, _, ok := analysis.PkgFunc(info, call)
			if !ok || pkg != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if obj := fieldOf(info, sel); obj != nil {
					atomicFields[obj] = name
					inAtomic[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Skip the atomic call sites themselves, including the &x.f
			// address-of wrappers around them.
			if un, ok := n.(*ast.UnaryExpr); ok && un.Op == token.AND {
				if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok && inAtomic[sel] {
					return false
				}
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomic[sel] {
				return true
			}
			obj := fieldOf(info, sel)
			if obj == nil {
				return true
			}
			if fn, atomicUsed := atomicFields[obj]; atomicUsed {
				pass.Reportf(sel.Pos(),
					"plain access to field %s, elsewhere accessed via sync/atomic (%s); use atomic for every access or switch the field to atomic.Int32/Int64",
					obj.Name(), fn)
			}
			return true
		})
	}
}

// fieldOf resolves the struct field object a selector denotes, or nil if
// the selector is not a field selection.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// ---- unlock ----

type lockOp struct {
	pos  token.Pos
	recv string
	name string
}

// checkUnlocks flags Unlock/RUnlock calls whose receiver has no preceding
// Lock/TryLock (resp. RLock/TryRLock) anywhere earlier in the same function,
// scanning in source order. Presence, not balance, is what is checked: one
// Lock followed by Unlocks on disjoint early-exit branches is the normal
// idiom and stays silent; an Unlock in a function that never locks (the
// copy-paste-into-the-wrong-helper bug), or textually before the first
// Lock, is flagged.
func checkUnlocks(pass *analysis.Pass) {
	info := pass.TypesInfo
	analysis.FuncsOf(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Body == nil {
			return
		}
		var ops []lockOp
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // separate dynamic extent; scanning it inline would misorder ops
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "TryLock", "Unlock", "RLock", "TryRLock", "RUnlock":
			default:
				return true
			}
			t := info.TypeOf(sel.X)
			if t == nil || !containsLock(t) && !isLockPtr(t) {
				return true
			}
			ops = append(ops, lockOp{call.Pos(), types.ExprString(sel.X), sel.Sel.Name})
			return true
		})
		locked := make(map[string]bool)  // receivers with a write lock seen so far
		rlocked := make(map[string]bool) // receivers with a read lock seen so far
		for _, op := range ops {
			switch op.name {
			case "Lock", "TryLock":
				locked[op.recv] = true
			case "RLock", "TryRLock":
				rlocked[op.recv] = true
			case "Unlock":
				if !locked[op.recv] {
					pass.Reportf(op.pos, "%s.Unlock with no preceding %s.Lock in this function", op.recv, op.recv)
				}
			case "RUnlock":
				if !rlocked[op.recv] {
					pass.Reportf(op.pos, "%s.RUnlock with no preceding %s.RLock in this function", op.recv, op.recv)
				}
			}
		}
	})
}

func isLockPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && containsLock(p.Elem())
}
