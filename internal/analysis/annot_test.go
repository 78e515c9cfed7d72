package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const annotSrc = `//fmm:deterministic
package p

//fmm:hotpath
func Hot() {}

// Kernel documents itself.
//
//fmm:deterministic
func Kernel() {}

//fmm:allow hotalloc amortized growth // trailing comment
func Allowed() {}

//fmm:allow nodeterm
func Missing() {}

func Plain() {
	_ = 0 //fmm:allow diagbatch inline reason here
}
`

func parseAnnot(t *testing.T) (*token.FileSet, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", annotSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, ParseAnnotations(fset, []*ast.File{f})
}

func TestParseAnnotations(t *testing.T) {
	_, an := parseAnnot(t)
	if !an.PkgDeterministic {
		t.Error("package-scope //fmm:deterministic not detected")
	}
	byName := map[string]bool{}
	for _, fd := range an.funcs {
		byName["hot:"+fd.Name.Name] = an.Hotpath(fd)
		byName["det:"+fd.Name.Name] = an.Deterministic(fd)
	}
	if !byName["hot:Hot"] {
		t.Error("Hot not marked hotpath")
	}
	// Package scope puts every function in deterministic scope.
	for _, n := range []string{"Hot", "Kernel", "Allowed", "Missing", "Plain"} {
		if !byName["det:"+n] {
			t.Errorf("%s not in deterministic scope despite package marker", n)
		}
	}
	if len(an.allows) != 3 {
		t.Fatalf("got %d allows, want 3", len(an.allows))
	}
	for _, a := range an.allows {
		switch a.Analyzer {
		case "hotalloc":
			if a.Malformed || a.Reason != "amortized growth" {
				t.Errorf("hotalloc allow: malformed=%v reason=%q (trailing comment must be stripped)", a.Malformed, a.Reason)
			}
			if a.Fn == nil {
				t.Error("hotalloc allow should have function scope (doc comment)")
			}
		case "nodeterm":
			if !a.Malformed {
				t.Error("reason-less allow not marked malformed")
			}
		case "diagbatch":
			if a.Malformed || a.Fn != nil {
				t.Errorf("inline allow: malformed=%v fnScope=%v, want line scope", a.Malformed, a.Fn != nil)
			}
		default:
			t.Errorf("unexpected allow analyzer %q", a.Analyzer)
		}
	}
}

func TestSplitMarker(t *testing.T) {
	cases := []struct{ in, marker, rest string }{
		{"//fmm:hotpath", "//fmm:hotpath", ""},
		{"//fmm:deterministic", "//fmm:deterministic", ""},
		{"//fmm:allow hotalloc why not", "//fmm:allow", "hotalloc why not"},
		{"// ordinary comment", "", ""},
		{"//fmm:allow\thotalloc tabbed", "//fmm:allow", "hotalloc tabbed"},
	}
	for _, c := range cases {
		m, r := splitMarker(c.in)
		if m != c.marker || r != c.rest {
			t.Errorf("splitMarker(%q) = %q, %q; want %q, %q", c.in, m, r, c.marker, c.rest)
		}
	}
}
