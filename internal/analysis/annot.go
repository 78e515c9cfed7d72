package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The fmm annotation grammar (DESIGN.md §7.5):
//
//	//fmm:hotpath
//	    On a function's doc comment: the body must be allocation-free and
//	    must not take per-item diag counters (hotalloc, diagbatch).
//
//	//fmm:deterministic
//	    On a function's doc comment: the body must be reproducible — no
//	    clocks, no math/rand, no GOMAXPROCS-dependent values (nodeterm).
//	    Before a file's package clause: the whole package (its non-test
//	    files) is in deterministic scope.
//
//	//fmm:allow <analyzer> <reason...>
//	    Suppresses <analyzer>'s diagnostics on the same source line (or the
//	    line immediately below, for annotations placed on their own line).
//	    On a function's doc comment: suppresses for the whole function.
//	    The reason is mandatory; a malformed or unused allow is itself a
//	    diagnostic, so every suppression in the tree stays justified and
//	    live.
//
//	//fmm:coldcall <reason...>
//	    Stops //fmm:hotpath and //fmm:deterministic propagation (DESIGN.md
//	    §7.9) across a deliberate slow-path boundary. On a function's doc
//	    comment: the function is a propagation barrier — reaching it from a
//	    hot or deterministic caller does not place it (or its callees) in
//	    scope. On a source line: the call and function-value edges
//	    originating on that line (or the line immediately below, for
//	    annotations on their own line) do not propagate. The reason is
//	    mandatory, and a line-scope coldcall that covers no call is itself a
//	    diagnostic.
const (
	markerPrefix  = "//fmm:"
	markerHot     = "//fmm:hotpath"
	markerDet     = "//fmm:deterministic"
	markerAllow   = "//fmm:allow"
	markerCold    = "//fmm:coldcall"
	driverName    = "fmmvet"
	allowNextLine = 1 // an allow on its own line covers the next line too
)

// Allow is one parsed //fmm:allow suppression.
type Allow struct {
	Analyzer string
	Reason   string
	File     string
	Line     int
	Pos      token.Pos
	// Fn is non-nil when the allow sits in a function's doc comment and
	// therefore covers the whole function body.
	Fn *ast.FuncDecl
	// Malformed is set when the analyzer name or the reason is missing.
	Malformed bool
	used      bool
}

// Cold is one parsed //fmm:coldcall propagation barrier.
type Cold struct {
	Reason string
	File   string
	Line   int
	Pos    token.Pos
	// Fn is non-nil when the coldcall sits in a function's doc comment and
	// marks the whole function as a propagation barrier.
	Fn *ast.FuncDecl
	// Malformed is set when the reason is missing.
	Malformed bool
	used      bool
}

// Annotations holds one package's parsed fmm markers.
type Annotations struct {
	fset *token.FileSet
	// PkgDeterministic is set when any non-test file carries
	// //fmm:deterministic before its package clause.
	PkgDeterministic bool
	hot              map[*ast.FuncDecl]bool
	det              map[*ast.FuncDecl]bool
	allows           []*Allow
	colds            []*Cold
	// coldChecked is set once a call-graph collection pass has classified
	// this package's edges; only then can an unused line-scope coldcall be
	// reported (single-analyzer fixture runs never build the graph).
	coldChecked bool
	// funcs holds every FuncDecl with a body, for position lookups.
	funcs []*ast.FuncDecl
}

// ParseAnnotations scans the files' comments for fmm markers. Test files are
// skipped entirely (they are not analyzed either).
func ParseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	an := &Annotations{
		fset: fset,
		hot:  make(map[*ast.FuncDecl]bool),
		det:  make(map[*ast.FuncDecl]bool),
	}
	for _, f := range files {
		if IsTestFile(fset.Position(f.Pos()).Filename) {
			continue
		}
		// Function-scope markers live in doc comments.
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Body != nil {
				an.funcs = append(an.funcs, fd)
			}
			if fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				switch marker, rest := splitMarker(c.Text); marker {
				case markerHot:
					an.hot[fd] = true
				case markerDet:
					an.det[fd] = true
				case markerAllow:
					an.addAllow(c, rest, fd)
				case markerCold:
					an.addCold(c, rest, fd)
				}
			}
		}
		// Package-scope determinism and line-scope allows can appear in any
		// comment group.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				marker, rest := splitMarker(c.Text)
				switch marker {
				case markerDet:
					if c.End() < f.Package {
						an.PkgDeterministic = true
					}
				case markerAllow:
					if an.inFuncDoc(c, files) {
						continue // already recorded above
					}
					an.addAllow(c, rest, nil)
				case markerCold:
					if an.inFuncDoc(c, files) {
						continue // already recorded above
					}
					an.addCold(c, rest, nil)
				}
			}
		}
	}
	return an
}

// splitMarker returns the marker token and the remainder of an //fmm: line
// ("" when the comment is not an fmm marker).
func splitMarker(text string) (marker, rest string) {
	if !strings.HasPrefix(text, markerPrefix) {
		return "", ""
	}
	body := text[len("//"):]
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return "//" + body[:i], strings.TrimSpace(body[i+1:])
	}
	return "//" + body, ""
}

func (an *Annotations) addAllow(c *ast.Comment, rest string, fn *ast.FuncDecl) {
	a := &Allow{
		File: an.fset.Position(c.Pos()).Filename,
		Line: an.fset.Position(c.Pos()).Line,
		Pos:  c.Pos(),
		Fn:   fn,
	}
	// The reason ends at an embedded "//": what follows is a separate
	// trailing comment (fixtures put // want expectations there).
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	fields := strings.Fields(rest)
	if len(fields) >= 2 {
		a.Analyzer = fields[0]
		a.Reason = strings.Join(fields[1:], " ")
	} else {
		a.Malformed = true
		if len(fields) == 1 {
			a.Analyzer = fields[0]
		}
	}
	an.allows = append(an.allows, a)
}

func (an *Annotations) addCold(c *ast.Comment, rest string, fn *ast.FuncDecl) {
	cc := &Cold{
		File: an.fset.Position(c.Pos()).Filename,
		Line: an.fset.Position(c.Pos()).Line,
		Pos:  c.Pos(),
		Fn:   fn,
	}
	// Like allows, the reason ends at an embedded "//" (trailing // want
	// expectations in fixtures).
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if rest == "" {
		cc.Malformed = true
	}
	cc.Reason = rest
	an.colds = append(an.colds, cc)
}

// ColdFunc reports whether fn's doc comment carries a well-formed
// //fmm:coldcall, making the function a propagation barrier.
func (an *Annotations) ColdFunc(fn *ast.FuncDecl) bool {
	for _, cc := range an.colds {
		if !cc.Malformed && cc.Fn == fn {
			cc.used = true
			return true
		}
	}
	return false
}

// ColdEdge reports whether a call or function-value edge at pos is covered
// by a line-scope //fmm:coldcall (same line, or the line below a coldcall on
// its own line), marking the coldcall used.
func (an *Annotations) ColdEdge(pos token.Pos) bool {
	p := an.fset.Position(pos)
	hit := false
	for _, cc := range an.colds {
		if cc.Malformed || cc.Fn != nil {
			continue
		}
		if cc.File == p.Filename && (cc.Line == p.Line || p.Line-cc.Line == allowNextLine) {
			cc.used = true
			hit = true
		}
	}
	return hit
}

// inFuncDoc reports whether the comment belongs to some FuncDecl's doc group
// (those allows are handled with function scope).
func (an *Annotations) inFuncDoc(c *ast.Comment, files []*ast.File) bool {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				if c.Pos() >= fd.Doc.Pos() && c.End() <= fd.Doc.End() {
					return true
				}
			}
		}
	}
	return false
}

// Hotpath reports whether fn carries //fmm:hotpath.
func (an *Annotations) Hotpath(fn *ast.FuncDecl) bool { return an.hot[fn] }

// Deterministic reports whether fn is in deterministic scope: annotated
// itself or in a package marked deterministic.
func (an *Annotations) Deterministic(fn *ast.FuncDecl) bool {
	return an.PkgDeterministic || an.det[fn]
}

// Filter applies the package's //fmm:allow suppressions to diags: a
// diagnostic is dropped when an allow for its analyzer covers its line (same
// line, the line below an allow-only line, or anywhere in an allow-annotated
// function). It returns the surviving diagnostics plus one driver
// ("fmmvet") diagnostic per malformed allow and per allow for a ran
// analyzer that suppressed nothing. ranAnalyzers lists the analyzers that
// actually ran, so single-analyzer drivers (tests) do not misreport allows
// aimed at the others.
func (an *Annotations) Filter(diags []Diagnostic, ranAnalyzers []string) []Diagnostic {
	ran := make(map[string]bool, len(ranAnalyzers))
	for _, n := range ranAnalyzers {
		ran[n] = true
	}
	kept := an.suppress(diags)
	for _, cc := range an.colds {
		switch {
		case cc.Malformed:
			kept = append(kept, Diagnostic{
				Pos:      cc.Pos,
				Analyzer: driverName,
				Message:  "malformed //fmm:coldcall: want \"//fmm:coldcall <reason>\"",
			})
		case cc.Fn == nil && an.coldChecked && !cc.used:
			kept = append(kept, Diagnostic{
				Pos:      cc.Pos,
				Analyzer: driverName,
				Message:  "//fmm:coldcall covers no call or function value; delete it or move it onto the cold edge",
			})
		}
	}
	for _, a := range an.allows {
		switch {
		case a.Malformed:
			kept = append(kept, Diagnostic{
				Pos:      a.Pos,
				Analyzer: driverName,
				Message:  "malformed //fmm:allow: want \"//fmm:allow <analyzer> <reason>\"",
			})
		case !knownAnalyzer(a.Analyzer):
			kept = append(kept, Diagnostic{
				Pos:      a.Pos,
				Analyzer: driverName,
				Message:  "//fmm:allow names unknown analyzer " + a.Analyzer,
			})
		case crossUnitAnalyzer(a.Analyzer):
			// lockorder and escape diagnostics are assembled from other
			// packages' lock witnesses (or the compiler), so whether an allow
			// fires is undecidable package-locally; never reported unused.
		case ran[a.Analyzer] && !a.used:
			kept = append(kept, Diagnostic{
				Pos:      a.Pos,
				Analyzer: driverName,
				Message:  "unused //fmm:allow " + a.Analyzer + ": suppresses no diagnostic; delete it",
			})
		}
	}
	return kept
}

// suppress drops every diagnostic covered by an //fmm:allow for its
// analyzer, marking the allows used.
func (an *Annotations) suppress(diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		pos := an.fset.Position(d.Pos)
		suppressed := false
		for _, a := range an.allows {
			if a.Malformed || a.Analyzer != d.Analyzer {
				continue
			}
			if a.Fn != nil {
				if a.Fn.Pos() <= d.Pos && d.Pos <= a.Fn.End() {
					a.used, suppressed = true, true
					break
				}
				continue
			}
			if a.File == pos.Filename && (a.Line == pos.Line || pos.Line-a.Line == allowNextLine) {
				a.used, suppressed = true, true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// AllowSite is an //fmm:allow location exported for cross-package matching
// (a lockorder cycle's witnesses live in arbitrary packages).
type AllowSite struct {
	File string
	Line int
}

// AllowSites returns the well-formed line- and function-scope allow
// positions for one analyzer. Function-scope allows cover every line of
// their function.
func (an *Annotations) AllowSites(analyzer string) []AllowSite {
	var out []AllowSite
	for _, a := range an.allows {
		if a.Malformed || a.Analyzer != analyzer {
			continue
		}
		if a.Fn != nil {
			start := an.fset.Position(a.Fn.Pos()).Line
			end := an.fset.Position(a.Fn.End()).Line
			for l := start; l <= end; l++ {
				out = append(out, AllowSite{File: a.File, Line: l})
			}
			continue
		}
		out = append(out, AllowSite{File: a.File, Line: a.Line})
		out = append(out, AllowSite{File: a.File, Line: a.Line + allowNextLine})
	}
	return out
}

// KnownAnalyzers names every analyzer of the fmmvet suite; an //fmm:allow
// must target one of them (an allow aimed at a misspelled analyzer would
// otherwise suppress nothing, silently). escape diagnostics are normally
// managed through escape_baseline.txt rather than allows, but the name is
// valid so a deliberate one-off suppression stays expressible.
var KnownAnalyzers = []string{"hotalloc", "diagbatch", "nodeterm", "lockorder", "escape"}

func knownAnalyzer(name string) bool {
	for _, n := range KnownAnalyzers {
		if n == name {
			return true
		}
	}
	return false
}

// crossUnitAnalyzer names the analyzers whose diagnostics are assembled
// outside the package (the whole-program lock graph, compiler output):
// their allows are exempt from unused reporting.
func crossUnitAnalyzer(name string) bool {
	return name == "lockorder" || name == "escape"
}
