package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseTaintPkg type-checks a dependency-free snippet into a Package the
// way Load would, including the raw source map pragma handling needs.
func parseTaintPkg(t *testing.T, src string) *Package {
	t.Helper()
	full := "package p\n" + src
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "taint_test.go", full, parser.ParseComments|parser.SkipObjectResolution)
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
	return &Package{
		ImportPath: "p",
		Fset:       fset,
		Files:      []*ast.File{file},
		Types:      tpkg,
		Info:       info,
		Src:        map[string][]byte{"taint_test.go": []byte(full)},
	}
}

// TestTaintMarkerCollection pins the //myproxy:untrusted and
// //myproxy:sanitizes grammar: the marker must be a standalone doc-comment
// line; it attaches to type declarations (on the GenDecl or the TypeSpec),
// function declarations, and interface method declarations.
func TestTaintMarkerCollection(t *testing.T) {
	pkg := parseTaintPkg(t, `
// Request is wire input.
//
//myproxy:untrusted
type Request struct{ Name string }

//myproxy:untrusted
type (
	// Frame rides the GenDecl-level marker.
	Frame []byte
)

// Clean carries no marker.
type Clean struct{}

// readLine's doc mentions myproxy:untrusted inline but the marker line
// below is what counts.
//
//myproxy:untrusted
func readLine() string { return "" }

// helper is unmarked.
func helper() string { return "" }

// mangle is a marked sanitizer.
//
//myproxy:sanitizes
func mangle(s string) string { return s }

// checkName is a marked validator (error-returning shape).
//
//myproxy:sanitizes
func checkName(s string) error { return nil }

// Channel is the interface-method case.
type Channel interface {
	// ReadMessage returns raw peer bytes.
	//
	//myproxy:untrusted
	ReadMessage() ([]byte, error)
	// WriteMessage is unmarked.
	WriteMessage(p []byte) error
}
`)
	untrustedTypes, untrustedFns, sanitizeFns := collectTaintMarkers([]*Package{pkg})

	for _, want := range []string{"p.Request", "p.Frame"} {
		if _, ok := untrustedTypes[want]; !ok {
			t.Errorf("untrustedTypes missing %s", want)
		}
	}
	if _, ok := untrustedTypes["p.Clean"]; ok {
		t.Errorf("unmarked type Clean collected as untrusted")
	}
	// The stdlib seeds ride along regardless of the load's markers.
	if _, ok := untrustedTypes["net/http.Request"]; !ok {
		t.Errorf("seeded net/http.Request missing from untrustedTypes")
	}

	if !untrustedFns["p.readLine"] {
		t.Errorf("untrustedFns missing p.readLine")
	}
	if untrustedFns["p.helper"] {
		t.Errorf("unmarked func helper collected as untrusted")
	}
	if !untrustedFns["(p.Channel).ReadMessage"] {
		t.Errorf("untrustedFns missing interface method (p.Channel).ReadMessage, have %v", untrustedFns)
	}
	if untrustedFns["(p.Channel).WriteMessage"] {
		t.Errorf("unmarked interface method WriteMessage collected as untrusted")
	}

	if !sanitizeFns["p.mangle"] || !sanitizeFns["p.checkName"] {
		t.Errorf("sanitizeFns missing marked functions, have %v", sanitizeFns)
	}
	if sanitizeFns["p.helper"] {
		t.Errorf("unmarked func helper collected as sanitizer")
	}
}

// TestTaintMarkerGrammar: only the exact standalone line is a marker.
// Trailing words turn the line into a malformed pragma (surfaced by the
// pragma pass), never a silent half-marker.
func TestTaintMarkerGrammar(t *testing.T) {
	pkg := parseTaintPkg(t, `
// Loose has trailing words after the marker, so it is not a marker.
//
//myproxy:untrusted because the peer writes it
type Loose struct{}

func use(l Loose) {}
`)
	untrustedTypes, _, _ := collectTaintMarkers([]*Package{pkg})
	if _, ok := untrustedTypes["p.Loose"]; ok {
		t.Errorf("marker with trailing words must not collect")
	}
	known := map[string]bool{}
	for _, p := range Passes {
		known[p.Name] = true
	}
	_, diags := collectPragmas([]*Package{pkg}, known)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown myproxy pragma") {
		t.Errorf("want one unknown-pragma finding for the malformed marker, got %v", diags)
	}
}

// TestTaintMarkersNotPragmaFindings: well-formed markers are owned by
// taint.go and must not surface as pragma diagnostics, while
// //myproxy:allow lines naming the taint passes resolve against the
// registry like any other pass.
func TestTaintMarkersNotPragmaFindings(t *testing.T) {
	pkg := parseTaintPkg(t, `
//myproxy:untrusted
type Wire struct{}

//myproxy:sanitizes
func scrub(s string) string { return s }

func logIt(s string) {
	_ = s //myproxy:allow logtaint fixture rationale
	_ = s //myproxy:allow hdrtaint fixture rationale
}
`)
	known := map[string]bool{}
	for _, p := range Passes {
		known[p.Name] = true
	}
	idx, diags := collectPragmas([]*Package{pkg}, known)
	if len(diags) != 0 {
		t.Fatalf("markers or taint-pass allowances misreported: %v", diags)
	}
	var allowed []string
	for _, byLine := range idx {
		for _, as := range byLine {
			for _, a := range as {
				allowed = append(allowed, a.pass)
			}
		}
	}
	for _, pass := range []string{"logtaint", "hdrtaint"} {
		found := false
		for _, p := range allowed {
			if p == pass {
				found = true
			}
		}
		if !found {
			t.Errorf("allowance for %s not indexed; have %v", pass, allowed)
		}
	}
}

// TestUntrustedTypeUnwrap: the by-type ambient rule sees through pointers,
// slices and arrays up to a small depth.
func TestUntrustedTypeUnwrap(t *testing.T) {
	pkg := parseTaintPkg(t, `
//myproxy:untrusted
type Req struct{}

var (
	a Req
	b *Req
	c []Req
	d [4]*Req
	e [][][][]*Req
	f int
)
`)
	untrustedTypes, _, _ := collectTaintMarkers([]*Package{pkg})
	ctx := &Context{UntrustedTypes: untrustedTypes}
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true,
		"e": false, // beyond the unwrap depth: conservative non-taint
		"f": false}
	scope := pkg.Types.Scope()
	for name, wantTainted := range want {
		obj := scope.Lookup(name)
		if obj == nil {
			t.Fatalf("var %s not found", name)
		}
		if _, got := ctx.untrustedType(obj.Type()); got != wantTainted {
			t.Errorf("untrustedType(%s %s) = %v, want %v", name, obj.Type(), got, wantTainted)
		}
	}
}

// TestDerivesValidator pins the annotation-free validator recognition:
// one string parameter, one error result, per-character inspection, and
// both nil and non-nil returns.
func TestDerivesValidator(t *testing.T) {
	pkg := parseTaintPkg(t, `
type vErr string

func (e vErr) Error() string { return string(e) }

func good(s string) error {
	for _, r := range s {
		if r == '/' {
			return vErr("bad")
		}
	}
	return nil
}

func indexed(max int, s string) error {
	for i := 0; i < len(s) && i < max; i++ {
		if s[i] == 0 {
			return vErr("nul byte")
		}
	}
	return nil
}

func noInspect(s string) error {
	if s == "" {
		return vErr("empty")
	}
	return nil
}

func neverFails(s string) error {
	for range s {
	}
	return nil
}

func twoStrings(a, b string) error {
	for _, r := range a {
		if r == rune(b[0]) {
			return vErr("bad")
		}
	}
	return nil
}
`)
	cases := []struct {
		fn      string
		wantIdx int
		wantOK  bool
	}{
		{"good", 0, true},
		{"indexed", 1, true},
		{"noInspect", 0, false},
		{"neverFails", 0, false},
		{"twoStrings", 0, false},
	}
	decls := map[string]*ast.FuncDecl{}
	for _, d := range pkg.Files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			decls[fd.Name.Name] = fd
		}
	}
	for _, c := range cases {
		fd := decls[c.fn]
		if fd == nil {
			t.Fatalf("func %s not found", c.fn)
		}
		fn := pkg.Info.Defs[fd.Name].(*types.Func)
		idx, ok := derivesValidator(pkg, fd, fn.Type().(*types.Signature))
		if ok != c.wantOK || (ok && idx != c.wantIdx) {
			t.Errorf("derivesValidator(%s) = (%d, %v), want (%d, %v)", c.fn, idx, ok, c.wantIdx, c.wantOK)
		}
	}
}
