// Package analysis is a hand-rolled static-analysis framework for this
// repository, built entirely on the standard library's go/ast, go/parser
// and go/types (the repo is stdlib-only, so golang.org/x/tools is off the
// table). It exists because MyProxy's value proposition is careful handling
// of long-term secrets (paper §2–§3): the invariants that make that story
// true — crypto-grade randomness near key material, no secret values in
// log lines, constant-time comparisons, error wrapping that preserves
// classification — are enforced mechanically here, in CI, rather than by
// review. Which passes exist is decided by the kill matrix
// (killmatrix_test.go): a pass stays only while it is the cheapest catcher
// of a defect planted at a real site. Lock discipline, goroutine lifetimes,
// nil results and verdict mapping are not among them: for each, a short
// test (some under -race) caught the planted defect first.
//
// The framework loads packages with full type information (see loader.go),
// runs a set of Passes over each package unit, and filters the resulting
// diagnostics through //myproxy:allow pragma suppression (see pragma.go).
// The cmd/myproxy-vet command is the CLI front end; scripts/check.sh runs
// it as part of the verification gate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Diagnostic is one finding: a position, the pass that raised it, and a
// human-readable message.
type Diagnostic struct {
	// Pass is the name of the pass that produced the finding.
	Pass string `json:"pass"`
	// Pos locates the finding (file, line, column).
	Pos token.Position `json:"-"`
	// File/Line/Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message describes the problem and the expected remedy.
	Message string `json:"message"`
}

// String renders the conventional file:line:col: pass: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// Package is one loaded, type-checked unit: either a package's compiled
// files (GoFiles plus in-package test files, matching the compiler's test
// variant) or an external _test package.
type Package struct {
	// ImportPath is the package's import path; external test packages
	// carry their "pkg_test" path.
	ImportPath string
	// Dir is the directory holding the sources.
	Dir string
	// Fset positions all files of the load.
	Fset *token.FileSet
	// Files are the parsed sources, in load order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and object facts.
	Info *types.Info
	// Src maps each file name (as recorded in Fset) to its raw bytes;
	// pragma handling uses it to distinguish trailing from standalone
	// comments.
	Src map[string][]byte
}

// Pass is one analyzer. Run inspects a single package unit and returns its
// findings; the driver handles pragma suppression, sorting and output.
type Pass struct {
	// Name is the pass's short identifier, used in output and in
	// //myproxy:allow pragmas.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run produces the pass's diagnostics for one package. ctx carries
	// facts shared across the whole load (e.g. secret-labelled types).
	Run func(ctx *Context, pkg *Package) []Diagnostic
}

// Context carries cross-package facts computed once per load.
type Context struct {
	// SecretTypes maps fully-qualified named-type names
	// ("path/to/pkg.TypeName") to the reason they are secret-labelled
	// (the //myproxy:secret marker, see secret.go).
	SecretTypes map[string]string
	// Summaries holds the per-function call summaries the dataflow passes
	// consult to see one hop across a call (see summary.go).
	Summaries summaryTable
	// FuncDecls maps qualified function names to their declaration sites, so
	// passes can look across the load at a callee's body (the hot cone walks
	// from its roots; logtaint tells repository functions from the rest).
	FuncDecls map[string]declSite
	// CallGraph is the load's qualified-name call graph (callgraph.go); the
	// interprocedural summary sweep orders its work by the graph's SCCs.
	CallGraph *CallGraph
	// HotCone holds the qualified names reachable from //myproxy:hotpath
	// annotations (hotpath.go); hotblock gates on membership.
	HotCone map[string]bool
	// HotCostly maps qualified names to a short description of the blocking
	// or costly work they (transitively) perform, for hotblock.
	HotCostly map[string]string
	// cfgs memoizes control-flow graphs by function body, shared between
	// the summary computation and the dataflow passes; cfgMu makes the
	// memoizer safe under the parallel per-package driver.
	cfgMu sync.Mutex
	cfgs  map[*ast.BlockStmt]*CFG
}

// cfgOf builds (or returns the memoized) CFG for a function body. Safe for
// concurrent use: passes running on different packages share the memoizer.
func (ctx *Context) cfgOf(pkg *Package, name string, body *ast.BlockStmt) *CFG {
	ctx.cfgMu.Lock()
	defer ctx.cfgMu.Unlock()
	if ctx.cfgs == nil {
		ctx.cfgs = make(map[*ast.BlockStmt]*CFG)
	}
	if c, ok := ctx.cfgs[body]; ok {
		return c
	}
	c := buildCFG(pkg, name, body, ctx.Summaries)
	ctx.cfgs[body] = c
	return c
}

// diag is a small helper for passes.
func (p *Package) diag(pass string, pos token.Pos, format string, args ...interface{}) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		Pass:    pass,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	}
}
