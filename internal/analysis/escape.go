package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Intraprocedural escape analysis. secretescape needs to know, per local
// variable, whether its backing storage can outlive (or leave) the frame:
// it flags secret buffers whose bytes escape to places pki.WipeBytes can
// never reach.
//
// The lattice is five independent facts per local:
//
//   - escAddrTaken:  &x (including &x.f, &x[i]) — a pointer into the
//     value's storage exists.
//   - escCaptured:   x is referenced inside a function literal declared
//     after x (closures force heap allocation, and the literal may run
//     after the frame is gone), or passed to a `go` statement's call.
//   - escStored:     x (or a view of it) is assigned through a selector,
//     index or dereference, placed in a composite literal, spread by a
//     builtin (append into another slice, panic), or aliased by a
//     conversion between slice types.
//   - escReturned:   x is a return operand (ownership hand-off; the caller
//     inherits whatever obligation the value carries).
//   - escSent:       x is the value operand of a channel send.
//
// Plain call arguments deliberately add NO fact: passing a buffer to a
// callee that merely reads it neither forces a heap allocation in this
// model nor moves the wipe obligation (matching zeroize's rule that an
// argument pass does not discharge). That is optimistic against the real
// compiler — an un-inlined callee could retain the slice — and the
// soundness trade is documented in DESIGN.md ("Static-analysis gate").
//
// One-level aliasing is closed over: `y := x`, `y := x[:n]`, and
// `y := append(x, ...)` record that y views x's backing array, and after
// the walk any heap-forcing fact on a view is propagated to its backing
// variable, iterated to a fixpoint so chains of views resolve.

// escFact is a bitset of escape facts.
type escFact uint8

const (
	escAddrTaken escFact = 1 << iota
	escCaptured
	escStored
	escReturned
	escSent
)

// escHeap are the facts that put the backing array out of the frame's
// exclusive control.
const escHeap = escAddrTaken | escCaptured | escStored | escSent

// describe renders the most severe fact present, for diagnostics.
func (f escFact) describe() string {
	switch {
	case f&escSent != 0:
		return "sent on a channel"
	case f&escCaptured != 0:
		return "captured by a function literal"
	case f&escStored != 0:
		return "stored beyond the frame"
	case f&escAddrTaken != 0:
		return "its address is taken"
	case f&escReturned != 0:
		return "returned to the caller"
	}
	return "frame-local"
}

// escapeInfo holds the per-function results.
type escapeInfo struct {
	facts map[types.Object]escFact
}

// fact returns the computed bitset for obj (zero when never seen).
func (e *escapeInfo) fact(obj types.Object) escFact { return e.facts[obj] }

// escapeFacts computes the lattice for one function: an *ast.FuncDecl
// (parameters and receiver included) or an *ast.FuncLit.
func escapeFacts(pkg *Package, fn ast.Node) *escapeInfo {
	e := &escapeInfo{facts: make(map[types.Object]escFact)}
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	if body == nil {
		return e
	}

	defDepth := make(map[types.Object]int)
	// views[backing] lists the locals recorded as viewing backing's array.
	views := make(map[types.Object][]types.Object)

	var stack []ast.Node
	litDepth := 0
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				litDepth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok && n != fn {
			litDepth++
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				defDepth[obj] = litDepth
			}
			return true
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Only locals (and parameters) of this function are tracked.
		if obj.Pos() < fn.Pos() || obj.Pos() > fn.End() {
			return true
		}
		if d, seen := defDepth[obj]; (seen && litDepth > d) || (!seen && litDepth > 0) {
			e.facts[obj] |= escCaptured
		}
		classifyEscapeUse(pkg, stack, obj, e, views)
		return true
	})

	// Close aliasing: a view's heap-forcing facts (including returned — a
	// returned view hands out the backing array) belong to the backing
	// variable too.
	const propagate = escHeap | escReturned
	for changed := true; changed; {
		changed = false
		for backing, vs := range views {
			for _, v := range vs {
				if add := e.facts[v] & propagate &^ e.facts[backing]; add != 0 {
					e.facts[backing] |= add
					changed = true
				}
			}
		}
	}
	return e
}

// classifyEscapeUse walks outward from the identifier at the top of the
// stack and records the fact (if any) its enclosing context implies.
func classifyEscapeUse(pkg *Package, stack []ast.Node, obj types.Object, e *escapeInfo, views map[types.Object][]types.Object) {
	child := ast.Node(stack[len(stack)-1])
	// pureView: the path climbed so far still denotes the same backing
	// array (ident, parens, slice expressions, slice-to-slice conversions).
	pureView := true
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			child = p
			continue
		case *ast.SliceExpr:
			if p.X != child {
				return // obj is a slice bound: plain integer use
			}
			child = p
			continue
		case *ast.StarExpr:
			if p.X != child {
				return
			}
			pureView = false
			child = p
			continue
		case *ast.IndexExpr:
			if p.X != child {
				return // obj is the index: plain integer use
			}
			// x[i]: access into obj's storage. Keep climbing for &x[i]
			// and x[i] = ...; the element itself is a copy, not a view.
			pureView = false
			child = p
			continue
		case *ast.SelectorExpr:
			if p.X != child {
				return // obj is the field name; fields are not tracked here
			}
			pureView = false
			child = p
			continue
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				e.facts[obj] |= escAddrTaken
			}
			return
		case *ast.KeyValueExpr:
			if p.Key == child {
				return // map literal key position is handled as composite below anyway
			}
			child = p
			continue
		case *ast.CompositeLit:
			e.facts[obj] |= escStored
			return
		case *ast.CallExpr:
			if p.Fun == child {
				return // calling through obj; value edges are the call graph's business
			}
			fun := ast.Unparen(p.Fun)
			if fid, ok := fun.(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[fid].(*types.Builtin); ok {
					switch b.Name() {
					case "append":
						if len(p.Args) > 0 && p.Args[0] == child && pureView {
							// The result may alias obj's backing array;
							// keep climbing to find where it lands.
							child = p
							continue
						}
						// appended INTO another slice: obj's bytes are copied out.
						e.facts[obj] |= escStored
						return
					case "panic":
						e.facts[obj] |= escStored
						return
					default:
						return // len, cap, copy, clear, delete, min, max, ...
					}
				}
				if _, isType := pkg.Info.Uses[fid].(*types.TypeName); isType {
					if sliceToSliceConversion(pkg, p) && pureView {
						child = p
						continue // named-slice conversion shares the backing array
					}
					return // string(b) / []byte(s) copy: a new allocation, not an escape of obj
				}
			}
			// A conversion written with a qualified or composite type
			// expression (pkg.T(x), (T)(x)) behaves like the ident case.
			if tv, ok := pkg.Info.Types[p.Fun]; ok && tv.IsType() {
				if sliceToSliceConversion(pkg, p) && pureView {
					child = p
					continue
				}
				return
			}
			// Plain argument pass: no fact — unless the call runs on a new
			// goroutine, which shares the value concurrently.
			if i > 0 {
				if _, ok := stack[i-1].(*ast.GoStmt); ok {
					e.facts[obj] |= escCaptured
				}
			}
			return
		case *ast.SendStmt:
			if p.Value == child {
				e.facts[obj] |= escSent
			}
			return
		case *ast.ReturnStmt:
			e.facts[obj] |= escReturned
			return
		case *ast.AssignStmt:
			rhsIdx := -1
			for j, r := range p.Rhs {
				if r == child {
					rhsIdx = j
					break
				}
			}
			if rhsIdx < 0 {
				return // obj on the LHS: assigned into, not escaping
			}
			if len(p.Lhs) == len(p.Rhs) {
				lhs := p.Lhs[rhsIdx]
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					return // discarded, not stored
				}
				if lhsObj := assignedObj(pkg, lhs); lhsObj != nil {
					if pureView && lhsObj != obj {
						views[obj] = append(views[obj], lhsObj)
					}
					return // local-to-local: tracked via the alias closure
				}
				// Storing through a selector, index or dereference.
				e.facts[obj] |= escStored
				return
			}
			e.facts[obj] |= escStored // mismatched multi-assign: conservative
			return
		case *ast.RangeStmt:
			return // ranging over obj reads it in place
		case *ast.IncDecStmt, *ast.BinaryExpr, *ast.IfStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.ForStmt, *ast.ExprStmt, *ast.BlockStmt,
			*ast.CaseClause, *ast.CommClause, *ast.DeferStmt, *ast.GoStmt,
			*ast.TypeAssertExpr, *ast.SelectStmt, *ast.LabeledStmt:
			return
		default:
			return
		}
	}
}

// sliceToSliceConversion reports whether the conversion call keeps the same
// backing array: both the operand and the target are slices (e.g. a named
// []byte type). string <-> []byte conversions copy and return false.
func sliceToSliceConversion(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	av, ok := pkg.Info.Types[call.Args[0]]
	if !ok {
		return false
	}
	_, toSlice := tv.Type.Underlying().(*types.Slice)
	_, fromSlice := av.Type.Underlying().(*types.Slice)
	return toSlice && fromSlice
}
