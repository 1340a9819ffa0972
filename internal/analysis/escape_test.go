package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseEscape type-checks a dependency-free snippet and computes escape
// facts for the function named fn.
func parseEscape(t *testing.T, src, fn string) (*Package, *escapeInfo, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "escape_test.go", "package p\n"+src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pkg := &Package{ImportPath: "p", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == fn && fd.Body != nil {
			return pkg, escapeFacts(pkg, fd), fd
		}
	}
	t.Fatalf("function %q not found", fn)
	return nil, nil, nil
}

// varNamed finds the (first) local or parameter named name in fn.
func varNamed(t *testing.T, pkg *Package, fd *ast.FuncDecl, name string) types.Object {
	t.Helper()
	var found types.Object
	ast.Inspect(fd, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if obj, ok := pkg.Info.Defs[id].(*types.Var); ok && !obj.IsField() {
				found = obj
				return false
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("variable %q not found in %s", name, fd.Name.Name)
	}
	return found
}

func TestEscapeFacts(t *testing.T) {
	tests := []struct {
		name string
		src  string
		fn   string
		vars map[string]escFact // expected fact bitsets, exact
	}{
		{
			name: "frame-local stays clean",
			src: `func f() int {
				b := make([]byte, 8)
				b[0] = 1
				n := len(b)
				for i := range b {
					b[i] = 0
				}
				return n
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": 0},
		},
		{
			name: "address taken",
			src: `func f() {
				x := 1
				p := &x
				_ = p
			}`,
			fn:   "f",
			vars: map[string]escFact{"x": escAddrTaken},
		},
		{
			name: "address of element",
			src: `func f() {
				b := make([]byte, 8)
				p := &b[0]
				_ = p
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escAddrTaken},
		},
		{
			name: "returned",
			src: `func f() []byte {
				b := make([]byte, 8)
				return b
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escReturned},
		},
		{
			name: "stored into composite literal",
			src: `type box struct{ data []byte }
			func f() box {
				b := make([]byte, 8)
				v := box{data: b}
				return v
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escStored},
		},
		{
			name: "stored through field",
			src: `type box struct{ data []byte }
			func f(dst *box) {
				b := make([]byte, 8)
				dst.data = b
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escStored},
		},
		{
			name: "sent on channel",
			src: `func f(ch chan []byte) {
				b := make([]byte, 8)
				ch <- b
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escSent},
		},
		{
			name: "captured by literal",
			src: `func f() func() int {
				b := make([]byte, 8)
				return func() int { return len(b) }
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escCaptured},
		},
		{
			name: "goroutine argument",
			src: `func g(b []byte) {}
			func f() {
				b := make([]byte, 8)
				go g(b)
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escCaptured},
		},
		{
			name: "plain call argument is free",
			src: `func g(b []byte) {}
			func f() {
				b := make([]byte, 8)
				g(b)
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": 0},
		},
		{
			name: "reads do not escape",
			src: `func f(b []byte) int {
				if len(b) > 0 && b[0] == 1 {
					return int(b[0])
				}
				n := 0
				for _, c := range b {
					n += int(c)
				}
				return n
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": 0},
		},
		{
			name: "alias view propagates return to backing",
			src: `func f() []byte {
				b := make([]byte, 8)
				v := b[:4]
				return v
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escReturned, "v": escReturned},
		},
		{
			name: "alias chain propagates store",
			src: `type box struct{ data []byte }
			func f(dst *box) {
				b := make([]byte, 8)
				v := b[:4]
				w := v[1:]
				dst.data = w
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escStored, "v": escStored, "w": escStored},
		},
		{
			name: "append result aliases operand",
			src: `type box struct{ data []byte }
			func f(dst *box) {
				b := make([]byte, 8, 16)
				v := append(b, 1)
				dst.data = v
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escStored, "v": escStored},
		},
		{
			name: "appended into another slice",
			src: `func f(out []byte) []byte {
				b := make([]byte, 8)
				out = append(out, b...)
				return out
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escStored},
		},
		{
			name: "string conversion copies, no escape",
			src: `func f() int {
				b := make([]byte, 8)
				s := string(b)
				return len(s)
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": 0},
		},
		{
			name: "element copy is not a view",
			src: `func f(ch chan byte) {
				b := make([]byte, 8)
				c := b[0]
				ch <- c
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": 0, "c": escSent},
		},
		{
			name: "panic escapes",
			src: `func f() {
				b := make([]byte, 8)
				panic(b)
			}`,
			fn:   "f",
			vars: map[string]escFact{"b": escStored},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pkg, esc, fd := parseEscape(t, tt.src, tt.fn)
			for name, want := range tt.vars {
				obj := varNamed(t, pkg, fd, name)
				if got := esc.fact(obj); got != want {
					t.Errorf("%s: fact = %s (bits %#x), want bits %#x", name, got.describe(), got, want)
				}
			}
		})
	}
}
