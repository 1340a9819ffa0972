package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Call graph over the whole load, keyed by the same qualified names the
// summary table uses ("repro/internal/gsi.Client", "(net.Dialer).Dial").
// The graph exists so the interprocedural layer (interproc.go) can compute
// call summaries bottom-up: a function's summary is derived after its
// callees' summaries are final, so obligations — conn ownership, secret
// taint, wipe duties, lock requirements — propagate through wrapper chains
// of any depth in a single sweep, with fixpoint iteration confined to the
// strongly connected components that actually recurse.
//
// Resolution is deliberately static:
//
//   - Direct calls (package functions, methods with a concrete receiver)
//     resolve through the type checker.
//   - Function literals are nodes of their own, keyed "<enclosing>$<n>" in
//     preorder (matching funcBodies' display names). The enclosing function
//     gets an edge to each literal it creates: whether the literal runs
//     inline, deferred, or on a goroutine, its behavior is reachable from
//     (and attributable to) the creator, and a recursive closure ends up
//     in the creator's SCC where the fixpoint belongs.
//   - Method values and function values (`f := c.node; f(x)`, passing
//     gsi.Client as a callback) add an edge at the point the value is
//     *taken*: once a function escapes into a variable we no longer track
//     which call site invokes it, so the taker conservatively "may call" it.
//   - Interface dispatch is NOT devirtualized: a call through an interface
//     method resolves to the interface method's own key, which has no body
//     and therefore an empty (unknown) summary. This is the documented
//     soundness choice (DESIGN.md §8): the dataflow passes already treat
//     unknown callees conservatively (an argument passed to an unknown
//     callee discharges the caller's obligation rather than guessing), and
//     devirtualizing without whole-program points-to would manufacture
//     false facts. The fallback loses precision, never soundness, for the
//     obligations tracked here.
type CallGraph struct {
	// Nodes maps qualified names to their node. Callee-only names (stdlib
	// functions, interface methods) appear as nodes without a body.
	Nodes map[string]*CGNode
	// SCCs lists the strongly connected components in bottom-up
	// (callees-first) topological order; within a component, keys are
	// sorted for determinism.
	SCCs [][]string
}

// CGNode is one function in the graph.
type CGNode struct {
	Key string
	// Callees are the keys this function may invoke, deduplicated.
	Callees map[string]bool
	// HasBody marks nodes whose source is in the load (declared functions
	// and function literals); only these contribute summaries.
	HasBody bool
}

func (g *CallGraph) node(key string) *CGNode {
	n := g.Nodes[key]
	if n == nil {
		n = &CGNode{Key: key, Callees: make(map[string]bool)}
		g.Nodes[key] = n
	}
	return n
}

// Calls reports whether caller has a (direct) edge to callee.
func (g *CallGraph) Calls(caller, callee string) bool {
	n := g.Nodes[caller]
	return n != nil && n.Callees[callee]
}

// buildCallGraph constructs the graph for the load from the declaration
// sites the summary stage collected.
func buildCallGraph(decls []declSite) *CallGraph {
	g := &CallGraph{Nodes: make(map[string]*CGNode)}
	for _, d := range decls {
		g.node(d.key).HasBody = true
		addCallEdges(g, d.pkg, d.key, d.fd.Body)
	}
	g.SCCs = tarjanSCC(g)
	return g
}

// addCallEdges walks one declaration body and records, for the declaration
// and each function literal within it, the callees: direct calls, function
// and method values taken, and the literals created. Literals are numbered
// in preorder across the whole declaration ("pkg.Fn$1", "pkg.Fn$2", ...),
// matching funcBodies, and attributed to whichever function (declaration or
// enclosing literal) creates them.
func addCallEdges(g *CallGraph, pkg *Package, declKey string, body *ast.BlockStmt) {
	litIdx := 0
	var walk func(owner *CGNode, root ast.Node)
	walk = func(owner *CGNode, root ast.Node) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				litIdx++
				litKey := fmt.Sprintf("%s$%d", declKey, litIdx)
				owner.Callees[litKey] = true
				lit := g.node(litKey)
				lit.HasBody = true
				walk(lit, m.Body)
				return false
			case *ast.CallExpr:
				if fn := calleeFunc(pkg, m); fn != nil {
					if k := funcKey(fn); k != "" {
						owner.Callees[k] = true
						g.node(k) // materialize callee-only nodes (no body)
					}
				}
				// Indirect calls (f(x) where f is a variable) resolve to
				// nothing here; the value edge was added where f was taken.
				return true
			case *ast.Ident:
				addValueEdge(g, pkg, owner, m)
			case *ast.SelectorExpr:
				addValueEdge(g, pkg, owner, m.Sel)
				// Still descend: X may contain calls (chained selectors).
				walk(owner, m.X)
				return false
			}
			return true
		})
	}
	walk(g.node(declKey), body)
}

// addValueEdge adds a may-call edge when id references a function — as the
// operand of a direct call (dedups with the CallExpr case) or as a function
// or method value escaping into a variable or argument.
func addValueEdge(g *CallGraph, pkg *Package, n *CGNode, id *ast.Ident) {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if k := funcKey(fn); k != "" {
		n.Callees[k] = true
		g.node(k)
	}
}

// tarjanSCC computes strongly connected components; the returned order is
// reverse-topological (a component appears after every component it calls
// into — i.e. callees first), which is exactly the order summary
// computation wants. Iteration is deterministic: roots and edges are
// visited in sorted key order.
func tarjanSCC(g *CallGraph) [][]string {
	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	index := make(map[string]int, len(keys))
	low := make(map[string]int, len(keys))
	onStack := make(map[string]bool, len(keys))
	var stack []string
	var sccs [][]string
	next := 0

	// Iterative Tarjan (explicit frame stack): call chains in a real load
	// are deep enough that goroutine-stack recursion is worth avoiding.
	type frame struct {
		key   string
		edges []string
		pos   int
	}
	sortedCallees := func(key string) []string {
		node := g.Nodes[key]
		out := make([]string, 0, len(node.Callees))
		for c := range node.Callees {
			if _, ok := g.Nodes[c]; ok {
				out = append(out, c)
			}
		}
		sort.Strings(out)
		return out
	}

	for _, root := range keys {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{key: root, edges: sortedCallees(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.pos < len(f.edges) {
				c := f.edges[f.pos]
				f.pos++
				if _, seen := index[c]; !seen {
					index[c], low[c] = next, next
					next++
					stack = append(stack, c)
					onStack[c] = true
					frames = append(frames, frame{key: c, edges: sortedCallees(c)})
				} else if onStack[c] && index[c] < low[f.key] {
					low[f.key] = index[c]
				}
				continue
			}
			// Frame done: emit the component if this is its root, then pop
			// and propagate the lowlink to the parent.
			if low[f.key] == index[f.key] {
				var comp []string
				for {
					k := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[k] = false
					comp = append(comp, k)
					if k == f.key {
						break
					}
				}
				sort.Strings(comp)
				sccs = append(sccs, comp)
			}
			done := f.key
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[done] < low[parent.key] {
					low[parent.key] = low[done]
				}
			}
		}
	}
	return sccs
}

// sccIsRecursive reports whether a component needs fixpoint iteration: more
// than one member, or a single member that calls itself.
func sccIsRecursive(g *CallGraph, comp []string) bool {
	if len(comp) > 1 {
		return true
	}
	return g.Calls(comp[0], comp[0])
}
