package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load resolves the package patterns with `go list -json -deps`, parses and
// typechecks every in-module package from source (standard-library imports
// come from the toolchain's export data), and returns all of them — the
// named roots plus their in-module dependencies — so the whole-program
// driver sees one consistent program. GoFiles excludes test files, so
// fmmvet analyzes exactly the shipped code.
func Load(patterns []string) ([]*PackageInfo, error) {
	args := append([]string{"list", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		pkgs = append(pkgs, &p)
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	loaded := make(map[string]*types.Package)
	var roots []*PackageInfo

	// `go list -deps` emits packages in dependency order, so a single
	// forward sweep sees every import before its importer.
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard {
			continue // imported lazily through the gc importer
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := NewTypesInfo()
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if path == "unsafe" {
					return types.Unsafe, nil
				}
				if tp, ok := loaded[path]; ok {
					return tp, nil
				}
				return std.Import(path)
			}),
			Sizes: types.SizesFor("gc", "amd64"),
		}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
		}
		loaded[p.ImportPath] = tp
		roots = append(roots, &PackageInfo{
			Path:  p.ImportPath,
			Fset:  fset,
			Files: files,
			Types: tp,
			Info:  info,
		})
	}
	return roots, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
