package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// secretName is the naming rule for values that carry secret material:
// pass phrases, passwords, secrets and private keys, by any spelling of
// those words, and a variable named pw.
var secretName = regexp.MustCompile(`(?i)(passphrase|password|passwd|secret|private_?key)|^pw$`)

// TestSecretsCompareInConstantTime holds the module's non-test code to the
// rule Verify in internal/otp follows: a one-time-password value or a value
// named as a secret is compared with hmac.Equal or
// subtle.ConstantTimeCompare, never with ==, !=, bytes.Equal or
// bytes.Compare, whose time leaks how long a prefix matched. Parentheses,
// conversions and slicing are seen through; a comparison with "" or nil
// asks whether the value is there at all, not what it is.
func TestSecretsCompareInConstantTime(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := loadedModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				var operands []ast.Expr
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						operands = []ast.Expr{n.X, n.Y}
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						fn, ok := pkg.info.Uses[sel.Sel].(*types.Func)
						if ok && fn.Pkg() != nil && fn.Pkg().Path() == "bytes" && (fn.Name() == "Equal" || fn.Name() == "Compare") {
							operands = n.Args
						}
					}
				}
				for _, x := range operands {
					if tv := pkg.info.Types[x]; tv.IsNil() || tv.Value != nil && tv.Value.ExactString() == `""` {
						return true
					}
				}
				for _, x := range operands {
					if why := secretOperand(pkg.info, x); why != "" {
						t.Errorf("%s: %s is compared in variable time: use hmac.Equal or subtle.ConstantTimeCompare", pkg.fset.Position(x.Pos()), why)
					}
				}
				return true
			})
		}
	}
}

// secretOperand names what makes x secret, or returns "".
func secretOperand(info *types.Info, x ast.Expr) string {
	name := ""
	switch e := x.(type) {
	case *ast.ParenExpr:
		return secretOperand(info, e.X)
	case *ast.SliceExpr:
		return secretOperand(info, e.X)
	case *ast.CallExpr:
		if len(e.Args) == 1 && info.Types[e.Fun].IsType() {
			return secretOperand(info, e.Args[0])
		}
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	}
	if name != "" && secretName.MatchString(name) {
		return strconv.Quote(name)
	}
	if types.TypeString(info.TypeOf(x), nil) == "repro/internal/otp.Value" {
		return "an otp.Value"
	}
	return ""
}

// mathRandAllowed names the packages whose non-test code may import
// math/rand, each with its reason. Keys, salts, nonces and tokens come from
// crypto/rand everywhere.
var mathRandAllowed = map[string]string{
	"internal/resilience": "retry jitter only decorrelates clients; it guards nothing",
	"bench":               "seeded operation schedules make benchmark runs repeatable",
}

// TestMathRandOnlyWhereAllowed reads the imports of every non-test file of
// the module and refuses math/rand outside mathRandAllowed; a listed
// package that no longer imports it is dropped from the list.
func TestMathRandOnlyWhereAllowed(t *testing.T) {
	used := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || p == "math/rand/v2" {
				dir := filepath.ToSlash(filepath.Dir(path))
				if _, ok := mathRandAllowed[dir]; !ok {
					t.Errorf("%s imports %s: draw from crypto/rand, or list the package in mathRandAllowed with its reason", path, p)
				}
				used[dir] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range mathRandAllowed {
		if !used[dir] {
			t.Errorf("mathRandAllowed lists %s, which no longer imports math/rand", dir)
		}
	}
}
