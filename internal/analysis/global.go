package analysis

import (
	"fmt"
	"go/token"
)

// This file is the whole-program driver: it collects every loaded package
// into one call graph, computes the //fmm:hotpath and //fmm:deterministic
// closures, runs the body analyzers with propagated scope, and then runs the
// global analyzers (lockorder, escape) that need the entire program at once.
// cmd/fmmvet and the multi-package analysistest fixtures both go through
// RunWholeProgram.

// GlobalAnalyzer is a check over the whole program rather than one package.
type GlobalAnalyzer struct {
	Name string
	Doc  string
	Run  func(*GlobalPass) error
}

// GlobalPass hands a GlobalAnalyzer the assembled program.
type GlobalPass struct {
	Analyzer *GlobalAnalyzer
	Fset     *token.FileSet
	// Pkgs are all loaded packages (roots and in-module deps) sharing Fset.
	Pkgs []*PackageInfo
	// Annots holds each package's parsed annotations, keyed by path.
	Annots map[string]*Annotations
	// Graph is the linked project call graph; Prop its scope closure.
	Graph *Graph
	Prop  *Propagation

	diags    []Diagnostic
	funcSpan map[string][]funcSpan // filename -> declarations, built lazily
}

type funcSpan struct {
	start, end int
	id         FuncID
}

// FuncAt returns the FuncID of the function declaration spanning the given
// file and line (filename as the shared FileSet renders it), if any.
func (p *GlobalPass) FuncAt(file string, line int) (FuncID, bool) {
	if p.funcSpan == nil {
		p.funcSpan = make(map[string][]funcSpan)
		for _, pkg := range p.Pkgs {
			an := p.Annots[pkg.Path]
			if an == nil {
				continue
			}
			for _, fd := range an.funcs {
				id, ok := p.Graph.IDOf(fd)
				if !ok {
					continue
				}
				pos := p.Fset.Position(fd.Pos())
				end := p.Fset.Position(fd.End())
				p.funcSpan[pos.Filename] = append(p.funcSpan[pos.Filename],
					funcSpan{start: pos.Line, end: end.Line, id: id})
			}
		}
	}
	for _, fs := range p.funcSpan[file] {
		if line >= fs.start && line <= fs.end {
			return fs.id, true
		}
	}
	return "", false
}

// Reportf records a diagnostic at pos.
func (p *GlobalPass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a diagnostic at a pre-rendered "file:line:col" position
// string (call-graph nodes, lock witnesses and compiler output carry those,
// not token.Pos).
func (p *GlobalPass) ReportAt(posStr string, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		PosStr:   posStr,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunWholeProgram analyzes the packages as one program:
//
//  1. Parse annotations and collect every package into one call graph.
//  2. Propagate hot/deterministic scope over the graph (coldcall barriers
//     respected), then run the body analyzers per package with that scope.
//  3. Run the global analyzers over the assembled graph.
//  4. Apply each package's suppressions and annotation hygiene checks.
//
// The returned diagnostics are sorted; all packages share one *token.FileSet
// (the Load contract), so positions render uniformly.
func RunWholeProgram(pkgs []*PackageInfo, analyzers []*Analyzer, globals []*GlobalAnalyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	g := NewGraph()
	annots := make(map[string]*Annotations, len(pkgs))
	for _, pkg := range pkgs {
		an := ParseAnnotations(pkg.Fset, pkg.Files)
		annots[pkg.Path] = an
		g.Collect(pkg, an)
	}
	prop := g.Propagate()

	names := make([]string, 0, len(analyzers)+len(globals))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	for _, ga := range globals {
		names = append(names, ga.Name)
	}

	perPkg := make(map[string][]Diagnostic, len(pkgs))
	for _, pkg := range pkgs {
		real, err := runAnalyzerSet(pkg, analyzers, annots[pkg.Path], prop, g)
		if err != nil {
			return nil, err
		}
		perPkg[pkg.Path] = real
	}

	var globalDiags []Diagnostic
	for _, ga := range globals {
		gp := &GlobalPass{
			Analyzer: ga,
			Fset:     fset,
			Pkgs:     pkgs,
			Annots:   annots,
			Graph:    g,
			Prop:     prop,
		}
		if err := ga.Run(gp); err != nil {
			return nil, fmt.Errorf("%s: %v", ga.Name, err)
		}
		globalDiags = append(globalDiags, gp.diags...)
	}
	// Attribute each global diagnostic to the package owning its position so
	// that package's allows apply.
	fileOwner := make(map[string]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fileOwner[fset.Position(f.Pos()).Filename] = pkg.Path
		}
	}
	for _, d := range globalDiags {
		file := d.PosStr
		if d.Pos.IsValid() {
			file = fset.Position(d.Pos).Filename
		} else if i := indexPosFile(file); i >= 0 {
			file = file[:i]
		}
		owner := fileOwner[file]
		perPkg[owner] = append(perPkg[owner], d) // "" collects unattributed ones
	}

	var all []Diagnostic
	for _, pkg := range pkgs {
		an := annots[pkg.Path]
		all = append(all, an.Filter(perPkg[pkg.Path], names)...)
	}
	all = append(all, perPkg[""]...)
	SortDiagnostics(fset, all)
	return all, nil
}

// runAnalyzerSet runs the body analyzers over one package, returning the raw
// (unfiltered) diagnostics.
func runAnalyzerSet(pkg *PackageInfo, analyzers []*Analyzer, annot *Annotations, prop *Propagation, g *Graph) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Annot:     annot,
			Prop:      prop,
			ids:       g.ids,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		all = append(all, pass.diags...)
	}
	return all, nil
}

// indexPosFile returns the index ending the filename part of a
// "file:line:col" position string (the first colon not part of a Windows
// drive letter), or -1.
func indexPosFile(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' && i != 1 {
			return i
		}
	}
	return -1
}
