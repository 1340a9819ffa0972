package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Verdict enforces exhaustive handling of protocol verdict codes. The
// MyProxy wire protocol answers every request with a RESPONSE whose code is
// one of a closed set (OK / error / authorization-required, paper §3.2);
// client code that switches on the code and forgets a constant silently
// treats that verdict as success or falls off the end of the handler — the
// classic "new response code added, old client mishandles it" protocol rot.
//
// A named type opts in with a standalone //myproxy:verdict line in its
// declaration doc comment (the same convention as //myproxy:secret). The
// pass then requires every switch on a verdict-typed value, and every
// if/else-if chain comparing one verdict-typed expression against two or
// more of its constants, to either cover all declared constants of the type
// or end in a default / final else. The constant universe is enumerated
// from the type's package scope, so it follows the declaration — adding a
// code breaks every non-exhaustive site in the next vet run.
//
// Limit (DESIGN.md §8): the marker lives in the declaring package's
// source, so it is only visible when that package's source is in the load —
// the repo-wide `./...` run, which is what CI executes. Narrower loads that
// only import the type through export data skip these checks.
var Verdict = &Pass{
	Name: "verdict",
	Doc:  "non-exhaustive handling of a protocol verdict type",
	Run:  runVerdict,
}

// collectVerdictTypes scans the load for //myproxy:verdict-marked type
// declarations, returning their fully-qualified names.
func collectVerdictTypes(pkgs []*Package) map[string]bool {
	marked := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !docHasMarker(verdictMarker, gd.Doc, ts.Doc, ts.Comment) {
						continue
					}
					if obj, ok := pkg.Info.Defs[ts.Name]; ok && obj.Pkg() != nil {
						marked[obj.Pkg().Path()+"."+obj.Name()] = true
					}
				}
			}
		}
	}
	return marked
}

func runVerdict(ctx *Context, pkg *Package) []Diagnostic {
	if len(ctx.Verdicts) == 0 {
		return nil
	}
	var diags []Diagnostic
	funcBodies(pkg, func(name string, body *ast.BlockStmt) {
		chained := make(map[*ast.IfStmt]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n.Body != body {
					return false
				}
			case *ast.SwitchStmt:
				if d, bad := checkVerdictSwitch(ctx, pkg, n); bad {
					diags = append(diags, d)
				}
			case *ast.IfStmt:
				if chained[n] {
					return true // interior link of a chain already checked
				}
				for link := n; ; {
					next, ok := link.Else.(*ast.IfStmt)
					if !ok {
						break
					}
					chained[next] = true
					link = next
				}
				if d, bad := checkVerdictIfChain(ctx, pkg, n); bad {
					diags = append(diags, d)
				}
			}
			return true
		})
	})
	return diags
}

// verdictNamed resolves t to a marked verdict type.
func verdictNamed(ctx *Context, t types.Type) *types.Named {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	if ctx.Verdicts[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
		return named
	}
	return nil
}

// verdictConstants enumerates the constants of the verdict type declared in
// its package scope, keyed by exact constant value. Export data carries
// package-scope constants, so imported verdict types enumerate too.
func verdictConstants(named *types.Named) map[string]string {
	out := make(map[string]string)
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		key := c.Val().ExactString()
		// Prefer the first name per value (aliases share coverage).
		if _, dup := out[key]; !dup {
			out[key] = name
		}
	}
	return out
}

// checkVerdictSwitch requires a switch on a verdict-typed tag to cover
// every constant or carry a default.
func checkVerdictSwitch(ctx *Context, pkg *Package, sw *ast.SwitchStmt) (Diagnostic, bool) {
	if sw.Tag == nil {
		return Diagnostic{}, false
	}
	tv, ok := pkg.Info.Types[sw.Tag]
	if !ok {
		return Diagnostic{}, false
	}
	named := verdictNamed(ctx, tv.Type)
	if named == nil {
		return Diagnostic{}, false
	}
	universe := verdictConstants(named)
	covered := make(map[string]bool)
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return Diagnostic{}, false // default clause: fallback exists
		}
		for _, e := range cc.List {
			if etv, ok := pkg.Info.Types[e]; ok && etv.Value != nil {
				covered[etv.Value.ExactString()] = true
			}
		}
	}
	missing := missingVerdicts(universe, covered)
	if len(missing) == 0 {
		return Diagnostic{}, false
	}
	return pkg.diag("verdict", sw.Pos(),
		"switch on verdict type %s covers %d of %d codes and has no default; missing: %s",
		named.Obj().Name(), len(covered), len(universe), strings.Join(missing, ", ")), true
}

// checkVerdictIfChain analyzes an if/else-if chain that compares one
// verdict-typed expression against its constants. Two or more distinct
// constants tested, no final else, and incomplete coverage is a finding;
// any condition the analysis cannot decompose into `expr == CONST`
// comparisons (of the same expr) makes it stay silent.
func checkVerdictIfChain(ctx *Context, pkg *Package, top *ast.IfStmt) (Diagnostic, bool) {
	var named *types.Named
	var exprKey string
	covered := make(map[string]bool)
	tests := 0

	link := top
	for {
		if link.Init != nil {
			return Diagnostic{}, false
		}
		key, n, vals, ok := verdictEqualities(ctx, pkg, link.Cond)
		if !ok {
			return Diagnostic{}, false
		}
		if named == nil {
			named, exprKey = n, key
		} else if key != exprKey {
			return Diagnostic{}, false // chain mixes subjects
		}
		for _, v := range vals {
			covered[v] = true
		}
		tests += len(vals)

		switch e := link.Else.(type) {
		case *ast.IfStmt:
			link = e
			continue
		case *ast.BlockStmt:
			return Diagnostic{}, false // final else: fallback exists
		}
		break
	}
	if named == nil || tests < 2 {
		return Diagnostic{}, false
	}
	universe := verdictConstants(named)
	missing := missingVerdicts(universe, covered)
	if len(missing) == 0 {
		return Diagnostic{}, false
	}
	return pkg.diag("verdict", top.Pos(),
		"if-chain on verdict type %s covers %d of %d codes with no final else; missing: %s",
		named.Obj().Name(), len(covered), len(universe), strings.Join(missing, ", ")), true
}

// verdictEqualities decomposes cond into `expr == CONST` comparisons joined
// by ||, all against the same verdict-typed expr. It returns the expr's
// canonical rendering, the verdict type, and the constant values tested.
func verdictEqualities(ctx *Context, pkg *Package, cond ast.Expr) (string, *types.Named, []string, bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return "", nil, nil, false
	}
	if b.Op == token.LOR {
		lk, ln, lv, ok := verdictEqualities(ctx, pkg, b.X)
		if !ok {
			return "", nil, nil, false
		}
		rk, rn, rv, ok := verdictEqualities(ctx, pkg, b.Y)
		if !ok || rk != lk {
			return "", nil, nil, false
		}
		return lk, ln, append(lv, rv...), rn == ln
	}
	if b.Op != token.EQL {
		return "", nil, nil, false
	}
	if key, n, v, ok := verdictSides(ctx, pkg, b.X, b.Y); ok {
		return key, n, []string{v}, true
	}
	if key, n, v, ok := verdictSides(ctx, pkg, b.Y, b.X); ok {
		return key, n, []string{v}, true
	}
	return "", nil, nil, false
}

// verdictSides matches (subject, constant) with a verdict-typed subject.
func verdictSides(ctx *Context, pkg *Package, subject, constSide ast.Expr) (string, *types.Named, string, bool) {
	stv, ok := pkg.Info.Types[ast.Unparen(subject)]
	if !ok {
		return "", nil, "", false
	}
	named := verdictNamed(ctx, stv.Type)
	if named == nil || stv.Value != nil {
		return "", nil, "", false
	}
	ctv, ok := pkg.Info.Types[ast.Unparen(constSide)]
	if !ok || ctv.Value == nil {
		return "", nil, "", false
	}
	return types.ExprString(ast.Unparen(subject)), named, ctv.Value.ExactString(), true
}

// missingVerdicts lists the constant names not covered, sorted.
func missingVerdicts(universe map[string]string, covered map[string]bool) []string {
	var missing []string
	for val, name := range universe {
		if !covered[val] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}
