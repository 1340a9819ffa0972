package analysis

import (
	"go/ast"
	"go/types"
)

// Interprocedural summary computation. PR 4's summary table was built with
// hand-rolled global fixpoints ("loop over every declaration until nothing
// changes", "run parameter fates twice so one summary hop is visible"),
// which caps obligation propagation at the iteration count and re-scans the
// whole load per round. This layer replaces that with the classic bottom-up
// scheme: build the call graph (callgraph.go), order its strongly connected
// components callees-first, and compute each function's summary after its
// callees' summaries are final. Non-recursive code — almost everything —
// is summarized in a single visit regardless of wrapper depth; fixpoint
// iteration is confined to components that actually recurse.
//
// The facts propagated across call boundaries are the dataflow passes'
// obligations: secret taint (secretResult, wipesParam) and termination
// (noReturn).
//
// The only remaining seeds (seedSummaries) are the standard-library
// primitive frontier: the DER marshalers have no source in the load, so
// their facts cannot be derived. Every repository-internal wiper summary is
// derived from its body through the graph.

// maxSCCRounds bounds fixpoint iteration within one recursive component.
// The fact lattices are small and monotone in practice; the cap is a
// defensive backstop, not a tuning knob.
const maxSCCRounds = 16

// collectDecls gathers every function declaration of the load and registers
// it in ctx.FuncDecls.
func collectDecls(ctx *Context, pkgs []*Package) []declSite {
	var decls []declSite
	ctx.FuncDecls = make(map[string]declSite)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				if key == "" {
					continue
				}
				site := declSite{pkg, fd, fn, key}
				decls = append(decls, site)
				ctx.FuncDecls[key] = site
			}
		}
	}
	return decls
}

// buildSummaries computes the summary table for one load, bottom-up over
// the call graph.
func buildSummaries(ctx *Context, pkgs []*Package) summaryTable {
	t := seedSummaries()
	// Publish the table before the sweep: CFGs built during summary
	// computation (ctx.cfgOf memoizes them for the passes) must consult
	// the callees' noReturn facts, which the bottom-up order has already
	// made final by the time any caller's CFG is constructed. Inside a
	// recursive component a first-round CFG can miss a fact derived in a
	// later round — conservative: the path merely stays alive.
	ctx.Summaries = t
	decls := collectDecls(ctx, pkgs)
	ctx.CallGraph = buildCallGraph(decls)

	// Marker-derived facts need no propagation order: secretResult from
	// //myproxy:secret doc markers.
	for _, d := range decls {
		if typeDocHasMarker(d.fd.Doc) && hasByteSliceResult(d.fn) {
			t.get(d.key).secretResult = true
		}
	}

	// Bottom-up sweep: callees before callers; iterate only inside
	// recursive components.
	for _, comp := range ctx.CallGraph.SCCs {
		var members []declSite
		for _, key := range comp {
			if d, ok := ctx.FuncDecls[key]; ok {
				members = append(members, d)
			}
		}
		if len(members) == 0 {
			continue
		}
		if !sccIsRecursive(ctx.CallGraph, comp) {
			updateSummary(ctx, t, members[0])
			continue
		}
		for round := 0; round < maxSCCRounds; round++ {
			changed := false
			for _, d := range members {
				if updateSummary(ctx, t, d) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return t
}

// updateSummary recomputes every derived fact of one declaration from its
// body and its callees' current summaries, reporting whether anything
// changed.
func updateSummary(ctx *Context, t summaryTable, d declSite) bool {
	changed := false
	s := t.get(d.key)

	// wipesParam: the body zeroes a byte-slice parameter or forwards it to
	// a callee that wipes that position.
	params := d.fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if !isByteSlice(p.Type()) || s.wipes[i] {
			continue
		}
		if bodyWipes(d.pkg, t, d.fd.Body, p) {
			if s.wipes == nil {
				s.wipes = make(map[int]bool)
			}
			s.wipes[i] = true
			changed = true
		}
	}

	// secretResult: a return hands back the (byte-slice) result of a
	// callee whose result is secret — taint crosses the call boundary.
	if !s.secretResult && hasByteSliceResult(d.fn) && returnsSecret(d.pkg, t, d.fd.Body) {
		s.secretResult = true
		changed = true
	}

	// noReturn: every path ends in a terminating call (panic, os.Exit, a
	// noReturn callee) before anything that could leave the function —
	// cmd/'s Fatalf-style helpers derive this, so the CFG ends paths at
	// their call sites like it does for os.Exit itself.
	if !s.noReturn && neverReturnsStmts(d.pkg, t, d.fd.Body.List) {
		s.noReturn = true
		changed = true
	}
	return changed
}

// returnsSecret reports whether some return statement hands back the result
// of a secretResult callee, directly or through a local.
func returnsSecret(pkg *Package, t summaryTable, body *ast.BlockStmt) bool {
	secretLocals := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		sum := t.of(calleeFunc(pkg, call))
		if sum == nil || !sum.secretResult {
			return true
		}
		for _, lhs := range as.Lhs {
			if obj := identObj(pkg, lhs); obj != nil && isByteSlice(obj.Type()) {
				secretLocals[obj] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are not this function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
				if sum := t.of(calleeFunc(pkg, call)); sum != nil && sum.secretResult {
					found = true
				}
			}
			if obj := identObj(pkg, res); obj != nil && secretLocals[obj] {
				found = true
			}
		}
		return true
	})
	return found
}
