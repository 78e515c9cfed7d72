// Package analysistest runs analyzers over fixture packages as one program,
// through the driver cmd/fmmvet uses, and checks their diagnostics against
// the fixtures' expectations — a minimal analogue of
// golang.org/x/tools/go/analysis/analysistest for the fmmvet suite.
//
// Fixtures live under <testdata>/src/<pkgpath>/ and are plain Go packages.
// Imports are resolved under <testdata>/src first (so fixtures can model
// in-module packages like kifmm/internal/diag with small stubs), then
// against the standard library.
//
// Expectations are trailing comments of the form
//
//	expr // want "regexp" "another"
//
// one regexp per expected diagnostic on that line, matched against the
// diagnostic message in any order. Suppressions are part of what fixtures
// test: the harness applies the same //fmm:allow filtering as the fmmvet
// driver, including its malformed/unused-suppression diagnostics (analyzer
// name "fmmvet").
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"kifmm/internal/analysis"
)

// RunProp loads several fixture packages and analyzes them as one program
// through RunWholeProgram: annotations propagate across the fixture
// packages' call graph exactly as in cmd/fmmvet, and the optional
// global analyzers (lockorder, escape) see the assembled graph. Every
// fixture file's // want expectations are checked; a diagnostic carrying a
// propagation chain matches with the chain rendered as
// " (via f \u2192 g)" appended to its message, so fixtures can pin the
// reported path.
func RunProp(t *testing.T, testdata string, analyzers []*analysis.Analyzer, globals []*analysis.GlobalAnalyzer, pkgpaths ...string) {
	t.Helper()
	ld := &loader{
		src:    filepath.Join(testdata, "src"),
		fset:   token.NewFileSet(),
		loaded: make(map[string]*loadedPkg),
	}
	ld.std = importer.ForCompiler(ld.fset, "gc", nil)
	var pkgs []*analysis.PackageInfo
	var filenames []string
	for _, pp := range pkgpaths {
		pkg, err := ld.load(pp)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pp, err)
		}
		pkgs = append(pkgs, &analysis.PackageInfo{
			Path:  pp,
			Fset:  ld.fset,
			Files: pkg.files,
			Types: pkg.types,
			Info:  pkg.info,
		})
		filenames = append(filenames, pkg.filenames...)
	}
	diags, err := analysis.RunWholeProgram(pkgs, analyzers, globals)
	if err != nil {
		t.Fatalf("whole-program run: %v", err)
	}
	checkWants(t, ld.fset, filenames, diags)
}

type loadedPkg struct {
	files     []*ast.File
	filenames []string
	types     *types.Package
	info      *types.Info
}

type loader struct {
	src    string
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*loadedPkg
}

func (ld *loader) load(pkgpath string) (*loadedPkg, error) {
	if p, ok := ld.loaded[pkgpath]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.src, filepath.FromSlash(pkgpath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{info: analysis.NewTypesInfo()}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
		p.filenames = append(p.filenames, name)
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			if _, err := os.Stat(filepath.Join(ld.src, filepath.FromSlash(path))); err == nil {
				sub, err := ld.load(path)
				if err != nil {
					return nil, err
				}
				return sub.types, nil
			}
			return ld.std.Import(path)
		}),
		Sizes: types.SizesFor("gc", "amd64"),
	}
	tp, err := conf.Check(pkgpath, ld.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	ld.loaded[pkgpath] = p
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// want is one expectation: a regexp on a specific file line.
type want struct {
	file string
	line int
	rx   *regexp.Regexp
	text string
	hit  bool
}

var wantRe = regexp.MustCompile(`// want (.*)$`)

// parseWants scans raw fixture lines for // want markers. Scanning text
// lines rather than AST comments lets an expectation ride on any line,
// including lines whose only comment is an //fmm: marker.
func parseWants(t *testing.T, filename string) []*want {
	t.Helper()
	b, err := os.ReadFile(filename)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for i, line := range strings.Split(string(b), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, pat := range splitPatterns(t, filename, i+1, m[1]) {
			rx, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, pat, err)
			}
			wants = append(wants, &want{file: filename, line: i + 1, rx: rx, text: pat})
		}
	}
	return wants
}

// splitPatterns parses a want payload: a sequence of double-quoted or
// backquoted strings.
func splitPatterns(t *testing.T, filename string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want string", filename, line)
			}
			pat, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s:%d: bad want string %q: %v", filename, line, s[:end+1], err)
			}
			out = append(out, pat)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want string", filename, line)
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s:%d: want patterns must be quoted, got %q", filename, line, s)
		}
	}
	return out
}

func checkWants(t *testing.T, fset *token.FileSet, filenames []string, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, fn := range filenames {
		wants = append(wants, parseWants(t, fn)...)
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, d := range diags {
		var file string
		var line int
		if d.Pos.IsValid() {
			pos := fset.Position(d.Pos)
			file, line = pos.Filename, pos.Line
		} else {
			f, l, _ := analysis.SplitPosStr(d.PosStr)
			file, line = f, l
		}
		msg := d.Message
		if len(d.Chain) > 0 {
			msg += " (via " + strings.Join(d.Chain, " \u2192 ") + ")"
		}
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == file && w.line == line && w.rx.MatchString(msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", file, line, d.Analyzer, msg)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.text)
		}
	}
}
