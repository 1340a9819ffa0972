package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Forward may-analysis over CFGs. A fact attaches to a variable (its
// types.Object) and means "on some path reaching this point, the variable is
// in the tracked state" — holds unwiped secret bytes. Passes
// supply a transfer function (how statements create/kill/move facts) and a
// report hook; the engine supplies the fixpoint iteration, the path-union
// join, and err-branch refinement.

// fact is one tracked obligation.
type fact struct {
	// acquired locates where the obligation was created; diagnostics anchor
	// here so //myproxy:allow pragmas have a stable target line.
	acquired token.Pos
	// desc names what was acquired ("secret bytes from kdf.Key", ...).
	desc string
	// err, when non-nil, pairs the fact with an error variable assigned by
	// the same call, enabling branch pruning: the value only exists when
	// err == nil, so the fact dies on every err != nil edge.
	//
	// Reassigning the error variable clears the pairing (see clearErrPair):
	// Go reuses the same object for `x, err := ...` redeclarations, so a
	// stale pairing would prune facts on branches of an unrelated call.
	err types.Object
}

// factSet maps tracked variables to their obligation. Sets are small (a
// handful of entries per function), so copying at branch points is cheap.
type factSet map[types.Object]fact

func (fs factSet) clone() factSet {
	out := make(factSet, len(fs))
	for k, v := range fs {
		out[k] = v
	}
	return out
}

// join merges src into dst (may-union) and reports whether dst changed.
func (fs factSet) join(src factSet) bool {
	changed := false
	for k, v := range src {
		old, ok := fs[k]
		if !ok {
			fs[k] = v
			changed = true
			continue
		}
		// Same variable reached by two paths: keep the earlier acquisition
		// position (stable diagnostics); drop the err pairing when the paths
		// disagree (pruning on either branch would be unsound).
		merged := old
		if v.acquired < merged.acquired {
			merged.acquired = v.acquired
			merged.desc = v.desc
		}
		if v.err != merged.err {
			merged.err = nil
		}
		if merged != old {
			fs[k] = merged
			changed = true
		}
	}
	return changed
}

// clearErrPair drops err pairings referring to obj, called when obj is
// reassigned.
func (fs factSet) clearErrPair(obj types.Object) {
	for k, f := range fs {
		if f.err == obj {
			f.err = nil
			fs[k] = f
		}
	}
}

// flowHooks is what a pass plugs into the engine.
type flowHooks struct {
	// transfer applies one node's effect to the fact set, in place. Nodes
	// are the shallow CFG nodes (see Block.Nodes); transfer must not recurse
	// into nested statements of marker nodes (RangeStmt bodies, the
	// end-of-function BlockStmt).
	transfer func(n ast.Node, fs factSet)
	// report, when non-nil, observes the facts holding immediately *before*
	// each node during the final stable walk — the place to flag "fact still
	// live at this return".
	report func(n ast.Node, fs factSet)
}

// runFlow iterates the CFG to a fixpoint and then replays each block once
// with the report hook.
func runFlow(pkg *Package, cfg *CFG, hooks flowHooks) {
	in := make([]factSet, len(cfg.Blocks))
	for i := range in {
		in[i] = make(factSet)
	}

	// Worklist fixpoint. Every block is queued once up front: joins only
	// re-queue on *change*, so starting from the entry alone would never
	// visit the rest of the graph while the sets are still empty.
	work := make([]*Block, len(cfg.Blocks))
	queued := make([]bool, len(cfg.Blocks))
	for i, blk := range cfg.Blocks {
		work[i] = blk
		queued[i] = true
	}
	for iter := 0; len(work) > 0; iter++ {
		if iter > 100000 {
			break // defensive: lattice is finite, this should be unreachable
		}
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false

		out := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			hooks.transfer(n, out)
		}
		for _, e := range blk.Succs {
			edgeFacts := out
			if e.Cond != nil {
				edgeFacts = out.clone()
				refineCond(pkg, e.Cond, e.Val, edgeFacts)
			}
			if in[e.To.Index].join(edgeFacts) && !queued[e.To.Index] {
				work = append(work, e.To)
				queued[e.To.Index] = true
			}
		}
	}

	if hooks.report != nil {
		for _, blk := range cfg.Blocks {
			fs := in[blk.Index].clone()
			for _, n := range blk.Nodes {
				hooks.report(n, fs)
				hooks.transfer(n, fs)
			}
		}
	}
}

// refineCond prunes facts using the truth of a branch condition. Handles the
// short-circuit operators by decomposition — when `a && b` is true both a
// and b are true; when `a || b` is false both are false — and negation, so
// `if err != nil && retries == 0` still prunes on the error branch without
// the CFG builder splitting conditions into blocks.
func refineCond(pkg *Package, cond ast.Expr, val bool, fs factSet) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			refineCond(pkg, c.X, !val, fs)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if val {
				refineCond(pkg, c.X, true, fs)
				refineCond(pkg, c.Y, true, fs)
			}
		case token.LOR:
			if !val {
				refineCond(pkg, c.X, false, fs)
				refineCond(pkg, c.Y, false, fs)
			}
		case token.EQL, token.NEQ:
			obj, isNilCmp := nilComparison(pkg, c)
			if !isNilCmp {
				return
			}
			// objIsNil: on this edge, obj compares equal to nil.
			objIsNil := val == (c.Op == token.EQL)
			refineNilFact(fs, obj, objIsNil)
		}
	}
}

// refineNilFact applies the knowledge "obj ==/!= nil" to the set: facts on
// obj itself die when obj is nil (a nil buffer holds nothing to wipe), and
// facts paired with obj as their error die where it is non-nil (the value
// exists only on success).
func refineNilFact(fs factSet, obj types.Object, objIsNil bool) {
	if objIsNil {
		delete(fs, obj)
		return
	}
	for k, f := range fs {
		if f.err == obj {
			delete(fs, k)
		}
	}
}

// nilComparison matches `x == nil` / `x != nil` (either operand order) where
// x resolves to a variable, returning the variable.
func nilComparison(pkg *Package, b *ast.BinaryExpr) (types.Object, bool) {
	if obj := nilCmpOperand(pkg, b.X, b.Y); obj != nil {
		return obj, true
	}
	if obj := nilCmpOperand(pkg, b.Y, b.X); obj != nil {
		return obj, true
	}
	return nil, false
}

func nilCmpOperand(pkg *Package, varSide, nilSide ast.Expr) types.Object {
	id, ok := ast.Unparen(nilSide).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return nil
	}
	if _, isNil := pkg.Info.Uses[id].(*types.Nil); !isNil {
		return nil
	}
	vid, ok := ast.Unparen(varSide).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pkg.Info.Uses[vid]
	if obj == nil {
		obj = pkg.Info.Defs[vid]
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}

// assignedObj resolves an assignment target to its variable: a plain (non-
// blank) identifier, whether newly declared (:=) or reassigned (=). Selector
// and index targets return nil — stores through them are escapes, not
// definitions.
func assignedObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	if obj, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// pairedErr picks the error variable among assignment targets, when there is
// exactly one — the variable branch refinement prunes on.
func pairedErr(objs []types.Object) types.Object {
	var errObj types.Object
	for _, o := range objs {
		if isErrorVar(o) {
			if errObj != nil {
				return nil
			}
			errObj = o
		}
	}
	return errObj
}

// invalidateAssigned drops facts attached to overwritten targets and clears
// error pairings that referred to them (Go reuses the variable object when
// `x, err := ...` redeclares err, so a stale pairing would prune facts on
// the branches of an unrelated call).
func invalidateAssigned(fs factSet, objs []types.Object) {
	for _, o := range objs {
		if o == nil {
			continue
		}
		delete(fs, o)
		fs.clearErrPair(o)
	}
}

// shortCallee renders a compact callee label for diagnostics:
// "gsi.Client" rather than "repro/internal/gsi.Client".
func shortCallee(fn *types.Func) string {
	key := funcKey(fn)
	if key == "" {
		if fn != nil {
			return fn.Name()
		}
		return "call"
	}
	if i := lastSlash(key); i >= 0 {
		prefix := ""
		if key[0] == '(' {
			prefix = "("
			key = key[1:]
			i--
		}
		return prefix + key[i+1:]
	}
	return key
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// identObj resolves an identifier expression to its variable object, or nil.
func identObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}

// calleeFunc resolves the *types.Func a call invokes, when statically
// known (package functions and methods; not function values).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// namedOf unwraps pointers to reach a named type, if any.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return namedOf(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}
