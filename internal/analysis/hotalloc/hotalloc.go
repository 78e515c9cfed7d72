// Package hotalloc flags allocation sources inside //fmm:hotpath functions.
//
// The per-octant phase bodies, the batched near-field micro-kernels, the
// Hadamard/FFT inner loops, and the scheduler's deque operations run
// millions of times per evaluation; PR 3/4 took one V-list pass from ~925k
// allocations to ~10.5k by moving every temporary into per-worker scratch.
// That property regresses silently — a stray append, boxing conversion, or
// closure reintroduces per-item garbage with no test failing — so hotpath
// functions are machine-checked for the constructs that allocate:
//
//   - make/new and escaping composite literals (&T{...}, slice/map/func
//     literals)
//   - append (any append can grow its backing array)
//   - conversions to slice, map, or between string and byte/rune slices
//   - implicit interface boxing: a concrete value passed to an
//     interface-typed parameter or assigned to an interface variable
//     (pointer-shaped values — pointers, chans, maps, funcs — are exempt:
//     they live directly in the interface word and boxing them is free)
//   - fmt.* calls (allocate via ...any boxing and internal buffers)
//   - go statements (goroutine spawn)
//   - string concatenation
//
// Amortized growth of reusable scratch inside a hot body is legitimate and
// carries an //fmm:allow hotalloc <reason> suppression; everything else is
// a bug or belongs outside the annotated function.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"kifmm/internal/analysis"
)

// Analyzer flags allocation sources in //fmm:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocations, growing appends, boxing, closures and fmt in //fmm:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.HotFuncs(func(fd *ast.FuncDecl, chain []string) {
		info := pass.TypesInfo
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if isPanic(info, e) {
					// The crash path is definitionally cold: allocations
					// evaluated only to build a panic message are noise.
					return false
				}
				checkCall(pass, chain, e)
			case *ast.UnaryExpr:
				if e.Op == token.AND {
					if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
						pass.ReportfVia(e.Pos(), chain, "escaping composite literal (&T{...}) in hot path")
					}
				}
			case *ast.CompositeLit:
				switch info.TypeOf(e).Underlying().(type) {
				case *types.Slice:
					pass.ReportfVia(e.Pos(), chain, "slice literal allocates in hot path")
				case *types.Map:
					pass.ReportfVia(e.Pos(), chain, "map literal allocates in hot path")
				}
			case *ast.FuncLit:
				pass.ReportfVia(e.Pos(), chain, "closure (func literal) allocates in hot path")
				// The body still runs in (and inherits) the enclosing hot
				// scope — sched.For and sched.Graph.Run execute it per
				// item — so its allocations are checked too.
				return true
			case *ast.GoStmt:
				pass.ReportfVia(e.Pos(), chain, "goroutine spawn in hot path")
			case *ast.BinaryExpr:
				if e.Op == token.ADD && isString(info.TypeOf(e)) {
					pass.ReportfVia(e.Pos(), chain, "string concatenation allocates in hot path")
				}
			case *ast.AssignStmt:
				checkAssignBoxing(pass, chain, e)
			}
			return true
		})
	})
	return nil
}

// isPanic matches a call to the builtin panic.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func checkCall(pass *analysis.Pass, chain []string, call *ast.CallExpr) {
	info := pass.TypesInfo
	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		from := info.TypeOf(call.Args[0])
		switch to.Underlying().(type) {
		case *types.Slice, *types.Map:
			if from == nil || !types.Identical(from.Underlying(), to.Underlying()) {
				pass.ReportfVia(call.Pos(), chain, "conversion to %s allocates in hot path", types.TypeString(to, types.RelativeTo(pass.Pkg)))
			}
		}
		if isString(to) && from != nil && !isString(from) && !isUntypedConst(from) {
			pass.ReportfVia(call.Pos(), chain, "conversion to string allocates in hot path")
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "make":
				pass.ReportfVia(call.Pos(), chain, "make allocates in hot path")
			case "new":
				pass.ReportfVia(call.Pos(), chain, "new allocates in hot path")
			case "append":
				pass.ReportfVia(call.Pos(), chain, "append may grow its backing array in hot path")
			}
			return
		}
	}
	// fmt calls.
	if pkg, name, _, ok := analysis.PkgFunc(info, call); ok && pkg == "fmt" {
		pass.ReportfVia(call.Pos(), chain, "fmt.%s call in hot path (boxing + buffer allocation)", name)
		return
	}
	// Interface boxing at call boundaries.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if boxes(info, pt, arg) {
			pass.ReportfVia(arg.Pos(), chain, "argument boxed into interface %s in hot path",
				types.TypeString(pt, types.RelativeTo(pass.Pkg)))
		}
	}
}

func checkAssignBoxing(pass *analysis.Pass, chain []string, s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	info := pass.TypesInfo
	for i, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		var lt types.Type
		if s.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		} else {
			lt = info.TypeOf(lhs)
		}
		if lt == nil {
			continue
		}
		if boxes(info, lt, s.Rhs[i]) {
			pass.ReportfVia(s.Rhs[i].Pos(), chain, "value boxed into interface %s in hot path",
				types.TypeString(lt, types.RelativeTo(pass.Pkg)))
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst performs
// an interface conversion that allocates. Pointer-shaped values (pointers,
// channels, maps, funcs, unsafe.Pointer, and single-field wrappers of
// these) are stored directly in the interface data word — gc's direct
// interface representation — so boxing them is free; flagging sync.Pool
// Get/Put of *[]T scratch pointers would only breed allows.
func boxes(info *types.Info, dst types.Type, expr ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	at := info.TypeOf(expr)
	if at == nil || types.IsInterface(at) {
		return false
	}
	if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !pointerShaped(at)
}

// pointerShaped reports whether t is represented as a single pointer word,
// matching the gc compiler's direct-interface ("pointer-shaped") rule:
// such values are placed in the interface word without a heap copy.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedConst(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsUntyped != 0
}
