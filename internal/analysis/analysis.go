// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough driver machinery to run the
// project's custom vet checks (cmd/fmmvet) over typechecked packages. The
// container this repo builds in has no module proxy access, so the framework
// is implemented on the standard library alone (go/ast, go/types,
// go/importer) and kept deliberately minimal: analyzers, a Pass carrying one
// typechecked package, plain position-based diagnostics, and the fmm
// annotation grammar (annot.go) that scopes the checks.
//
// One driver runs the analyzers over a program: RunWholeProgram
// (global.go), on one typechecked program and one call graph. cmd/fmmvet
// reaches it through Main, which loads go list patterns from source
// (load.go); analysistest.RunProp reaches it with fixture packages and
// checks the diagnostics against // want comments.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fmm:allow suppressions. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant enforced and the
	// fix or suppression expected for violations.
	Doc string
	// Run reports diagnostics on pass via pass.Report / pass.ReportfVia.
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// Chain is the hot/deterministic propagation path from the directly
	// annotated root to the function containing the finding (short names,
	// root first). Empty for directly annotated scope and for analyzers
	// that do not propagate.
	Chain []string
	// PosStr overrides Pos rendering when set — used by the global
	// analyzers, whose positions come from call-graph nodes, lock witnesses
	// and compiler output rather than the AST.
	PosStr string
}

// Pass carries one typechecked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test files. Test files participate in
	// typechecking but are never analyzed: the invariants fmmvet enforces
	// (determinism, allocation-free hot paths) are properties of the
	// shipped evaluation code, and tests legitimately use maps, clocks and
	// allocation freely.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Annot holds the package's parsed fmm annotations.
	Annot *Annotations
	// Prop is the whole-program hot/deterministic closure: scope iteration
	// covers propagated functions, not just directly annotated ones. ids
	// maps this package's declarations into the graph.
	Prop *Propagation
	ids  map[*ast.FuncDecl]FuncID

	diags []Diagnostic
}

// Report records a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.diags = append(p.diags, d)
}

// ReportfVia records a diagnostic carrying a propagation chain. A chain of
// length ≤ 1 (direct annotation) is dropped from the rendering.
func (p *Pass) ReportfVia(pos token.Pos, chain []string, format string, args ...any) {
	if len(chain) <= 1 {
		chain = nil
	}
	p.Report(Diagnostic{Pos: pos, Chain: chain, Message: fmt.Sprintf(format, args...)})
}

// HotFuncs invokes fn for every function in hot-path scope: directly
// annotated //fmm:hotpath, or reachable from one through non-cold call
// edges. chain is the propagation path, root
// first; nil for direct annotations.
func (p *Pass) HotFuncs(fn func(fd *ast.FuncDecl, chain []string)) {
	p.scopeFuncs(fn, p.Annot.Hotpath, func(pr *Propagation) map[FuncID][]string { return pr.Hot })
}

// DetFuncs invokes fn for every function in deterministic scope, directly
// annotated (function or package) or propagated.
func (p *Pass) DetFuncs(fn func(fd *ast.FuncDecl, chain []string)) {
	p.scopeFuncs(fn, p.Annot.Deterministic, func(pr *Propagation) map[FuncID][]string { return pr.Det })
}

func (p *Pass) scopeFuncs(fn func(*ast.FuncDecl, []string), direct func(*ast.FuncDecl) bool, sel func(*Propagation) map[FuncID][]string) {
	for _, fd := range p.Annot.funcs {
		switch {
		case direct(fd):
			fn(fd, nil)
		default:
			if id, ok := p.ids[fd]; ok {
				if chain, ok := sel(p.Prop)[id]; ok {
					fn(fd, chain)
				}
			}
		}
	}
}

// SortDiagnostics orders diagnostics by file, line, then analyzer name.
// Diagnostics carrying a PosStr sort by that string.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	key := func(d Diagnostic) (string, int) {
		if d.PosStr != "" {
			return d.PosStr, 0
		}
		p := fset.Position(d.Pos)
		return p.Filename, p.Line
	}
	sort.SliceStable(diags, func(i, j int) bool {
		fi, li := key(diags[i])
		fj, lj := key(diags[j])
		if fi != fj {
			return fi < fj
		}
		if li != lj {
			return li < lj
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// Render formats one diagnostic as the drivers print it, appending the
// propagation chain when present.
func Render(fset *token.FileSet, d Diagnostic) string {
	pos := d.PosStr
	if pos == "" {
		pos = fset.Position(d.Pos).String()
	}
	msg := d.Message
	if len(d.Chain) > 1 {
		msg += " (via " + strings.Join(d.Chain, " → ") + ")"
	}
	return fmt.Sprintf("%s: [%s] %s", pos, d.Analyzer, msg)
}

// PackageInfo is one loaded, typechecked package as the drivers hand it to
// RunWholeProgram. Files excludes test files (see Pass.Files).
type PackageInfo struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewTypesInfo returns a types.Info with every map analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// IsTestFile reports whether filename is a _test.go file.
func IsTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// FuncsOf walks every function declaration with a body in the files,
// invoking fn with each declaration.
func FuncsOf(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// PkgFunc resolves a call expression to (package path, function or method
// name, receiver named-type name). For a method call the receiver type name
// is the named type's Obj().Name(); for package-level functions it is "".
// ok is false when the callee cannot be resolved (builtins, type
// conversions, calls through function-typed variables).
func PkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name, recv string, ok bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, okk := info.Uses[fun]
		if !okk || obj.Pkg() == nil {
			return "", "", "", false
		}
		if _, isFn := obj.(*types.Func); !isFn {
			return "", "", "", false
		}
		return obj.Pkg().Path(), obj.Name(), "", true
	case *ast.SelectorExpr:
		if sel, okk := info.Selections[fun]; okk {
			// Method (or method value) call.
			f, isFn := sel.Obj().(*types.Func)
			if !isFn {
				return "", "", "", false
			}
			rt := sel.Recv()
			for {
				p, isPtr := rt.Underlying().(*types.Pointer)
				if !isPtr {
					break
				}
				rt = p.Elem()
			}
			rname := ""
			if n, isNamed := rt.(*types.Named); isNamed {
				rname = n.Obj().Name()
			}
			if f.Pkg() == nil {
				return "", "", "", false
			}
			return f.Pkg().Path(), f.Name(), rname, true
		}
		// Qualified identifier pkg.Fn.
		obj, okk := info.Uses[fun.Sel]
		if !okk || obj.Pkg() == nil {
			return "", "", "", false
		}
		if _, isFn := obj.(*types.Func); !isFn {
			return "", "", "", false
		}
		return obj.Pkg().Path(), obj.Name(), "", true
	}
	return "", "", "", false
}
