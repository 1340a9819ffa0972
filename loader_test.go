package repro

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
	"os"
	"os/exec"
	"path/filepath"
	"sync"
)

// modulePackage is one package of this module, type-checked from its
// non-test sources.
type modulePackage struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadedModule type-checks the module once per test process, for the tests
// that read the code's types (TestEveryConfigFieldHasAUser,
// TestSecretsCompareInConstantTime).
var loadedModule = sync.OnceValues(loadModule)

// loadModule type-checks every package of the module on the standard
// library alone: one `go list -export -deps` compiles the dependency closure
// and names each package's export data, which the gc importer reads; the
// module's own packages are then parsed and checked from source against it.
func loadModule() ([]*modulePackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		DepOnly                 bool
	}
	var roots []listed
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list: %w", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			roots = append(roots, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var pkgs []*modulePackage
	for _, p := range roots {
		pkg := &modulePackage{path: p.ImportPath, fset: fset, info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.files = append(pkg.files, f)
		}
		conf := types.Config{Importer: imp}
		if pkg.types, err = conf.Check(p.ImportPath, fset, pkg.files, pkg.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
