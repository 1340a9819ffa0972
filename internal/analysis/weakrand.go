package analysis

import (
	"go/ast"
	"go/types"
)

// WeakRand forbids math/rand (and math/rand/v2) anywhere in the tree
// unless the call site carries an explicit //myproxy:allow weakrand pragma
// with a rationale. A credential repository generates keys, OTP seeds and
// KDF salts; one absent-minded rand.Read near that code is a key-compromise
// bug that review will not reliably catch. The legitimate uses — retry
// jitter in internal/resilience, the benchmark's seeded operation mix —
// are annotated, which doubles as an inventory of every non-crypto
// randomness source in the repository.
var WeakRand = &Pass{
	Name: "weakrand",
	Doc:  "math/rand is forbidden except at pragma-annotated call sites; secrets need crypto/rand",
	Run:  runWeakRand,
}

var weakRandPaths = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func runWeakRand(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkg.Info.Uses[id].(*types.PkgName)
			if !ok || !weakRandPaths[pn.Imported().Path()] {
				return true
			}
			diags = append(diags, pkg.diag("weakrand", sel.Pos(),
				"%s.%s is not cryptographically secure; use crypto/rand, or annotate the call site with //myproxy:allow weakrand <reason>",
				pn.Imported().Path(), sel.Sel.Name))
			return true
		})
	}
	return diags
}
