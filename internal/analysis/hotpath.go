package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Hot-cone computation. hotblock only makes sense on the code the paper's
// Figure 2 loop actually executes: authenticate, unseal, delegate. That
// path is named in source with a standalone
//
//	//myproxy:hotpath
//
// line in a function declaration's doc comment. The *hot cone* is every
// function reachable from a marked root through the load's call graph
// (callgraph.go): direct calls, method and function values taken, and the
// function literals a cone member creates. Interface dispatch is not
// devirtualized (DESIGN.md §8), so a call through an interface leaves the
// cone — the Fig. 2 roots are therefore annotated on both sides of each
// interface seam (the core handlers AND keypool.Get, proxy.VerifyCache,
// credstore.UnsealIssuer, the gsi framing layer) rather than trusting
// reachability to cross it.
const hotpathMarker = "//myproxy:hotpath"

// collectHotCone fills ctx.HotCone with the qualified keys reachable from
// //myproxy:hotpath-annotated declarations, and ctx.HotCostly with the
// blocking/costly-work closure the hotblock pass consults. Requires
// ctx.FuncDecls and ctx.CallGraph (i.e. runs after buildSummaries).
func collectHotCone(ctx *Context, pkgs []*Package) {
	ctx.HotCone = make(map[string]bool)
	var frontier []string
	for key, d := range ctx.FuncDecls {
		if docHasMarker(hotpathMarker, d.fd.Doc) {
			ctx.HotCone[key] = true
			frontier = append(frontier, key)
		}
	}
	sort.Strings(frontier)
	for len(frontier) > 0 {
		k := frontier[0]
		frontier = frontier[1:]
		n := ctx.CallGraph.Nodes[k]
		if n == nil {
			continue
		}
		callees := make([]string, 0, len(n.Callees))
		for c := range n.Callees {
			callees = append(callees, c)
		}
		sort.Strings(callees)
		for _, c := range callees {
			if !ctx.HotCone[c] {
				ctx.HotCone[c] = true
				frontier = append(frontier, c)
			}
		}
	}
	computeHotCostly(ctx)
}

// computeHotCostly closes the costly-work seed set over the call graph: a
// function is costly when it is a seed or any of its callees is costly. The
// description propagated is the lexicographically smallest one reachable,
// which makes the fixpoint deterministic regardless of map iteration order.
func computeHotCostly(ctx *Context) {
	ctx.HotCostly = make(map[string]string)
	for k, desc := range hotCostlySeeds {
		if _, ok := ctx.CallGraph.Nodes[k]; ok {
			ctx.HotCostly[k] = desc
		}
	}
	for changed := true; changed; {
		changed = false
		for k, n := range ctx.CallGraph.Nodes {
			if _, seeded := hotCostlySeeds[k]; seeded {
				continue // a seed keeps its own description
			}
			best := ctx.HotCostly[k]
			for c := range n.Callees {
				if c == k {
					continue
				}
				d := ctx.HotCostly[c]
				if d == "" {
					continue
				}
				if best == "" || d < best {
					best = d
				}
			}
			if best != "" && best != ctx.HotCostly[k] {
				ctx.HotCostly[k] = best
				changed = true
			}
		}
	}
}

// hotBodies visits every declared function and function literal of pkg whose
// qualified key is in the hot cone. fn is the *ast.FuncDecl or *ast.FuncLit
// owning the body, so callers can compute escape facts over the whole
// function (parameters included).
func hotBodies(ctx *Context, pkg *Package, visit func(key string, fn ast.Node, body *ast.BlockStmt)) {
	if len(ctx.HotCone) == 0 {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := declKeyOf(pkg, fd)
			if key == "" {
				continue
			}
			if ctx.HotCone[key] {
				visit(key, fd, fd.Body)
			}
			// Literals are numbered in preorder across the declaration,
			// matching addCallEdges and funcBodies.
			litIdx := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					litIdx++
					lk := fmt.Sprintf("%s$%d", key, litIdx)
					if ctx.HotCone[lk] {
						visit(lk, fl, fl.Body)
					}
				}
				return true
			})
		}
	}
}

// declKeyOf renders the qualified key of a declaration in pkg, or "".
func declKeyOf(pkg *Package, fd *ast.FuncDecl) string {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return ""
	}
	return funcKey(fn)
}

// shortFuncKey compacts a qualified key for diagnostics:
// "(repro/internal/core.Server).handleGet" becomes "(core.Server).handleGet",
// "repro/internal/keypool.Get" becomes "keypool.Get". Literal suffixes
// ("$1") are preserved.
func shortFuncKey(key string) string {
	i := lastSlash(key)
	if i < 0 {
		return key
	}
	prefix := ""
	if key[0] == '(' {
		prefix = "("
		key = key[1:]
		i--
	}
	return prefix + key[i+1:]
}
