package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Call summaries let the intraprocedural dataflow passes see one hop across
// a call: "this function wipes the byte slice it is given", "the byte slice
// this function returns holds secret material", "this function never
// returns". Summaries are keyed by the callee's fully-qualified name —
// "repro/internal/gsi.Client", "(net.Dialer).DialContext" — rather than by
// *types.Func identity, because the same function is a different object
// when reached through export data than when loaded from source.
//
// The table is seeded with facts about standard-library functions and then
// extended by scanning every function declaration in the load:
//
//   - secretResult: the declaration's doc comment carries a standalone
//     //myproxy:secret line and a result is a byte slice (the function-level
//     counterpart of the type marker in secret.go).
//   - wipesParam: the body zeroes a byte-slice parameter (range-assign 0 or
//     clear()), or forwards it to a function that does; propagated to a
//     fixpoint so trivial wrappers inherit the fact.

// funcSummary is the per-function entry of the table.
type funcSummary struct {
	secretResult bool
	// noReturn: every execution path reaches a terminating call (panic,
	// os.Exit, a noReturn callee) before any statement that could leave
	// the function normally. The CFG builder ends paths at calls to such
	// functions exactly as it does for os.Exit, so `if err != nil {
	// cliutil.Fatalf(...) }` kills the error path's facts even though the
	// branch has no return.
	noReturn bool
	// wipes is keyed by parameter index (variadic parameters use their
	// declared index).
	wipes map[int]bool
}

func (s *funcSummary) wipesParam(i int) bool { return s != nil && s.wipes[i] }

type summaryTable map[string]*funcSummary

func (t summaryTable) of(fn *types.Func) *funcSummary {
	if fn == nil {
		return nil
	}
	return t[funcKey(fn)]
}

func (t summaryTable) get(key string) *funcSummary {
	s := t[key]
	if s == nil {
		s = &funcSummary{}
		t[key] = s
	}
	return s
}

// funcKey renders a function's stable fully-qualified name:
// "path/to/pkg.Func" for package functions, "(path/to/pkg.Type).Method" for
// methods (pointer receivers and interface methods included).
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil || named.Obj().Pkg() == nil {
				return ""
			}
			return "(" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// seedSummaries returns the built-in knowledge about the standard library.
func seedSummaries() summaryTable {
	t := make(summaryTable)
	// DER marshalers hand back unencrypted key material.
	for _, k := range []string{
		"crypto/x509.MarshalPKCS1PrivateKey",
		"crypto/x509.MarshalPKCS8PrivateKey",
		"crypto/x509.MarshalECPrivateKey",
	} {
		t.get(k).secretResult = true
	}
	return t
}

// declSite is one function declaration of the load, with everything the
// summary stages (and the hot cone, via Context.FuncDecls) need. The
// interprocedural driver that orders and iterates the stages lives in
// interproc.go.
type declSite struct {
	pkg *Package
	fd  *ast.FuncDecl
	fn  *types.Func
	key string
}

// argParamIndex maps an argument position to the parameter index, clamping
// into the variadic tail.
func argParamIndex(fn *types.Func, argIdx int) int {
	if fn == nil {
		return argIdx
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return argIdx
	}
	n := sig.Params().Len()
	if sig.Variadic() && argIdx >= n-1 {
		return n - 1
	}
	if argIdx >= n {
		return n - 1
	}
	return argIdx
}

// bodyWipes reports whether the body zeroes parameter p: an inline zeroing
// loop, a clear(p), or forwarding p to a callee that wipes that position.
func bodyWipes(pkg *Package, t summaryTable, body *ast.BlockStmt, p *types.Var) bool {
	wiped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if wiped {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isZeroingLoop(pkg, n, p) {
				wiped = true
				return false
			}
		case *ast.CallExpr:
			if isClearCall(pkg, n, p) {
				wiped = true
				return false
			}
			fn := calleeFunc(pkg, n)
			sum := t.of(fn)
			if sum == nil {
				return true
			}
			for i, arg := range n.Args {
				if identObj(pkg, arg) == p && sum.wipesParam(argParamIndex(fn, i)) {
					wiped = true
					return false
				}
			}
		}
		return true
	})
	return wiped
}

// isZeroingLoop matches `for i := range b { b[i] = 0 }` over obj.
func isZeroingLoop(pkg *Package, r *ast.RangeStmt, obj types.Object) bool {
	if identObj(pkg, r.X) != obj || len(r.Body.List) != 1 {
		return false
	}
	as, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	idx, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr)
	if !ok || identObj(pkg, idx.X) != obj {
		return false
	}
	tv, ok := pkg.Info.Types[as.Rhs[0]]
	return ok && tv.Value != nil && constant.Sign(tv.Value) == 0
}

// isClearCall matches the clear(b) builtin applied to obj.
func isClearCall(pkg *Package, call *ast.CallExpr, obj types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "clear" {
		return false
	}
	return len(call.Args) == 1 && identObj(pkg, call.Args[0]) == obj
}

// --- shared type predicates ---

var errorType = types.Universe.Lookup("error").Type()

func isErrorVar(obj types.Object) bool {
	return obj != nil && types.Identical(obj.Type(), errorType)
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isByte(s.Elem())
}

func hasByteSliceResult(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isByteSlice(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// --- shared AST walking helpers for transfers ---

// applyCalls invokes f on every call expression in the shallow node,
// skipping function-literal bodies (their calls belong to the literal's own
// CFG) and the nested statements of marker nodes.
func applyCalls(pkg *Package, n ast.Node, f func(*ast.CallExpr)) {
	root := shallowRoot(n)
	if root == nil {
		return
	}
	ast.Inspect(root, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			f(m)
		}
		return true
	})
}

// shallowRoot narrows a CFG node to the part that executes *at* the node:
// range markers contribute only their range expression (the body is lowered
// into its own blocks) and the end-of-function marker contributes nothing.
func shallowRoot(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.RangeStmt:
		return n.X
	case *ast.BlockStmt:
		return nil
	default:
		return n
	}
}

// mentionsObj reports whether the node references obj anywhere (including
// inside nested function literals — a capture keeps the value reachable).
func mentionsObj(pkg *Package, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// killEscapedMentions discharges facts whose variable escapes through the
// node: assigned to something, stored in a composite literal, sent on a
// channel, captured by a function literal, or returned. Mentions that are
// *not* escapes — the receiver of a method call, a call argument (the
// callee reading a secret does not wipe it), a nil comparison, len/cap —
// keep the obligation.
func killEscapedMentions(pkg *Package, n ast.Node, fs factSet) {
	root := shallowRoot(n)
	if root == nil || len(fs) == 0 {
		return
	}
	var stack []ast.Node
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, m)
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := fs[obj]; !tracked {
			return true
		}
		if escapingUse(pkg, stack) {
			delete(fs, obj)
		}
		return true
	})
}

// escapingUse classifies the innermost identifier on the stack by its
// enclosing context.
func escapingUse(pkg *Package, stack []ast.Node) bool {
	// Capture by any function literal on the path is an escape.
	for _, n := range stack[:len(stack)-1] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// x.Close(), x.SetDeadline(...): receiver use, not an escape. Field
		// *storage* (x in `s.f = x`) is handled by the AssignStmt case.
		if len(stack) >= 3 {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == p {
				return false
			}
		}
		return false // reading a field of x keeps x where it is
	case *ast.CallExpr:
		// Argument passes are the call rules' business, except conversions
		// and builtins like append, which spread the value.
		fun := ast.Unparen(p.Fun)
		if id, ok := fun.(*ast.Ident); ok {
			if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap":
					return false
				}
				return true // append, copy, panic(x), ...
			}
			if _, isType := pkg.Info.Uses[id].(*types.TypeName); isType {
				return true // conversion creates an alias
			}
		}
		return false
	case *ast.BinaryExpr:
		return false // comparisons (incl. nil checks)
	case *ast.UnaryExpr:
		return p.Op != token.NOT
	case *ast.IfStmt, *ast.SwitchStmt:
		return false
	}
	return true // assignment RHS, composite literal, send, return, index...
}
