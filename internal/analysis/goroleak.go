package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// GoroLeak finds `go` statements whose goroutine can block (or spin)
// forever. A credential repository is a long-lived process (paper §4): a
// goroutine parked on a channel nobody will ever service, or reading a
// connection with no deadline and no one to close it, is memory and a
// file descriptor leaked until restart — and under load, thousands of them.
// Four heuristics, all deliberately conservative (escaping channels and
// select-mediated operations are trusted):
//
//  1. no exit: the spawned function's CFG has no entry-reachable block that
//     terminates (every reachable block has a successor) — a for-loop with
//     no return, break-out or terminating call. Long-running workers must
//     have a shutdown path (a done channel, a closed work channel, an error
//     return).
//  2. abandonable send: the goroutine sends on an unbuffered channel made in
//     the spawning function, and every receive of that channel sits in a
//     multi-way select (or there is no receive at all) — if the receiver
//     takes another arm first, the sender parks forever. A one-slot buffer
//     makes the send unconditional.
//  3. unclosed range: the goroutine ranges over a channel made in the
//     spawning function that is never closed there and never escapes to
//     code that could close it.
//  4. undeadlined read: the goroutine blocks in Read/Handshake on a
//     deadline-capable connection captured from the spawning function, with
//     no deadline armed anywhere and no close reachable from outside the
//     goroutine to unblock it.
var GoroLeak = &Pass{
	Name: "goroleak",
	Doc:  "goroutines that can block forever: no exit path, abandonable channel ops, undeadlined reads",
	Run:  runGoroLeak,
}

func runGoroLeak(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Track the innermost enclosing function body of each go
			// statement: that is where its captured channels/conns live.
			var bodies []*ast.BlockStmt
			bodies = append(bodies, fd.Body)
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					bodies = append(bodies, n.Body)
					ast.Inspect(n.Body, walk)
					bodies = bodies[:len(bodies)-1]
					return false
				case *ast.GoStmt:
					diags = append(diags, checkGoStmt(ctx, pkg, n, bodies[len(bodies)-1])...)
				}
				return true
			}
			ast.Inspect(fd.Body, walk)
		}
	}
	return diags
}

func checkGoStmt(ctx *Context, pkg *Package, g *ast.GoStmt, enclosing *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if cfgNeverExits(ctx, pkg, lit.Body) {
			diags = append(diags, pkg.diag("goroleak", g.Pos(),
				"goroutine has no terminating path (no reachable return or exit); give it a shutdown signal (done channel, closed work channel, or context)"))
		}
		diags = append(diags, checkLitChannelOps(ctx, pkg, g, lit, enclosing)...)
		diags = append(diags, checkLitConnReads(ctx, pkg, lit, enclosing)...)
		return diags
	}
	// Named callee: resolve its declaration across the load and test its CFG.
	fn := calleeFunc(pkg, g.Call)
	if fn == nil {
		return diags
	}
	if d, ok := ctx.FuncDecls[funcKey(fn)]; ok {
		if cfgNeverExits(ctx, d.pkg, d.fd.Body) {
			diags = append(diags, pkg.diag("goroleak", g.Pos(),
				"goroutine %s has no terminating path (no reachable return or exit); give it a shutdown signal (done channel, closed work channel, or context)",
				shortCallee(fn)))
		}
	}
	return diags
}

// cfgNeverExits reports whether no entry-reachable block of the body's CFG
// terminates a path: every reachable block has at least one successor, so
// the function can neither return nor end via panic/os.Exit/Goexit.
func cfgNeverExits(ctx *Context, pkg *Package, body *ast.BlockStmt) bool {
	cfg := ctx.cfgOf(pkg, "go", body)
	seen := make([]bool, len(cfg.Blocks))
	stack := []*Block{cfg.Entry}
	seen[cfg.Entry.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(blk.Succs) == 0 {
			// The exit block, or a block ended by a terminating call.
			return false
		}
		for _, e := range blk.Succs {
			if !seen[e.To.Index] {
				seen[e.To.Index] = true
				stack = append(stack, e.To)
			}
		}
	}
	return true
}

// checkLitChannelOps applies heuristics 2 and 3 to a go'd function literal.
func checkLitChannelOps(ctx *Context, pkg *Package, g *ast.GoStmt, lit *ast.FuncLit, enclosing *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	comms := selectCommStmts(lit.Body)
	reported := make(map[types.Object]bool)

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl != lit {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if comms[n] {
				return true // a select arm: bounded by the select
			}
			ch := identObj(pkg, n.Chan)
			if ch == nil || reported[ch] {
				return true
			}
			use := channelUsage(pkg, ch, enclosing, lit)
			if !use.localUnbuffered || use.escapes {
				return true
			}
			switch {
			case use.plainReceives > 0:
				// Someone is committed to receiving.
			case use.selectReceives > 0:
				reported[ch] = true
				diags = append(diags, pkg.diag("goroleak", n.Pos(),
					"goroutine sends on unbuffered %s, but every receive sits in a multi-way select; if the receiver takes another arm the sender blocks forever — give the channel a one-slot buffer", ch.Name()))
			default:
				reported[ch] = true
				diags = append(diags, pkg.diag("goroleak", n.Pos(),
					"goroutine sends on unbuffered %s, which is never received in the spawning function; the sender blocks forever", ch.Name()))
			}
		case *ast.RangeStmt:
			ch := identObj(pkg, n.X)
			if ch == nil || reported[ch] {
				return true
			}
			if _, isChan := ch.Type().Underlying().(*types.Chan); !isChan {
				return true
			}
			use := channelUsage(pkg, ch, enclosing, lit)
			if !use.localMade || use.escapes || use.closed {
				return true
			}
			reported[ch] = true
			diags = append(diags, pkg.diag("goroleak", n.Pos(),
				"goroutine ranges over %s, which is never closed in the spawning function; the loop never ends — close(%s) when production stops", ch.Name(), ch.Name()))
		}
		return true
	})
	return diags
}

// channelUse summarizes how the spawning function treats a captured channel.
type channelUse struct {
	localMade       bool // made with make(chan ...) in the spawning function
	localUnbuffered bool // localMade with no buffer (or constant 0)
	closed          bool // close(ch) appears anywhere in the spawning function
	escapes         bool // handed to calls/fields/other goroutine literals
	plainReceives   int  // receives committed outside any multi-way select
	selectReceives  int  // receives inside multi-way selects (abandonable)
}

// channelUsage scans the spawning function body (outside the spawned
// literal) for everything it does with ch.
func channelUsage(pkg *Package, ch types.Object, enclosing *ast.BlockStmt, spawned *ast.FuncLit) channelUse {
	var use channelUse

	// Where was it made, and how?
	ast.Inspect(enclosing, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || pkg.Info.Defs[id] != ch {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := pkg.Info.Uses[fid].(*types.Builtin); !ok || b.Name() != "make" {
				continue
			}
			use.localMade = true
			use.localUnbuffered = len(call.Args) < 2 || isConstZero(pkg, call.Args[1])
		}
		return true
	})

	// How is it used outside the spawned literal?
	selects := multiWaySelectComms(enclosing)
	var stack []ast.Node
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == spawned {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// Another literal capturing the channel may service or close it
			// from a different goroutine; trust it (conservative).
			if mentionsObj(pkg, n.Body, ch) {
				use.escapes = true
			}
			return false
		case *ast.CallExpr:
			if fid, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[fid].(*types.Builtin); ok {
					switch b.Name() {
					case "close":
						if len(n.Args) == 1 && identObj(pkg, n.Args[0]) == ch {
							use.closed = true
							return true
						}
					case "len", "cap", "make":
						return true
					}
				}
			}
			for _, arg := range n.Args {
				if identObj(pkg, arg) == ch {
					use.escapes = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && identObj(pkg, n.X) == ch {
				if stmt := enclosingStmt(stack); stmt != nil && selects[stmt] {
					use.selectReceives++
				} else {
					use.plainReceives++
				}
			}
		case *ast.RangeStmt:
			if identObj(pkg, n.X) == ch {
				use.plainReceives++ // committed draining
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if identObj(pkg, rhs) == ch {
					use.escapes = true // aliased under another name
				}
			}
		case *ast.SendStmt:
			if identObj(pkg, n.Value) == ch {
				use.escapes = true // the channel itself sent elsewhere
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if identObj(pkg, res) == ch {
					use.escapes = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if identObj(pkg, e) == ch {
					use.escapes = true
				}
			}
		}
		return true
	})
	return use
}

// multiWaySelectComms maps each communication statement belonging to a
// select with more than one arm (or a default) — the abandonable kind.
func multiWaySelectComms(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		if len(sel.Body.List) < 2 {
			return true // single-arm select: as committed as a bare receive
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				out[cc.Comm] = true
			}
		}
		return true
	})
	return out
}

// enclosingStmt returns the innermost statement on the stack containing the
// current node.
func enclosingStmt(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(ast.Stmt); ok {
			return stack[i]
		}
	}
	return nil
}

func isConstZero(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constant.Int64Val(tv.Value)
	return exact && v == 0
}

// checkLitConnReads applies heuristic 4: a blocking Read/Handshake inside
// the goroutine on a captured deadline-capable value, with no deadline armed
// in either scope and no close from outside the goroutine to unblock it.
func checkLitConnReads(ctx *Context, pkg *Package, lit *ast.FuncLit, enclosing *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl != lit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Read", "ReadMessage", "Handshake":
		default:
			return true
		}
		obj := identObj(pkg, sel.X)
		if obj == nil || reported[obj] || !isDeadlineConn(obj.Type()) {
			return true
		}
		if definedWithin(pkg, lit.Body, obj) {
			return true // the goroutine's own conn: it decides when to stop reading
		}
		if armsObjDeadline(pkg, lit.Body, obj) || armsObjDeadline(pkg, enclosing, obj) {
			return true
		}
		if closedOutside(pkg, enclosing, lit, obj) {
			return true // an external close will unblock the read
		}
		reported[obj] = true
		diags = append(diags, pkg.diag("goroleak", call.Pos(),
			"goroutine blocks in %s on %s with no deadline armed and no close from outside the goroutine; a silent peer parks it forever — arm SetDeadline or close the conn on shutdown",
			sel.Sel.Name, obj.Name()))
		return true
	})
	return diags
}

// isDeadlineConn: armable with SetDeadline, excluding *os.File (whose
// deadlines only apply to pollable files).
func isDeadlineConn(t types.Type) bool {
	if named := namedOf(t); named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File" {
		return false
	}
	return hasDeadline(t)
}

// definedWithin reports whether obj's declaration lies inside the body.
func definedWithin(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

// armsObjDeadline reports whether the body calls a deadline-arming method on
// obj (anywhere, including nested literals — arming is arming).
func armsObjDeadline(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || !deadlineMethodNames[fn.Name()] {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && identObj(pkg, sel.X) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// closedOutside reports whether the spawning function closes obj outside the
// spawned literal (directly or in another literal — e.g. a watchdog
// goroutine that closes the conn on context cancellation).
func closedOutside(pkg *Package, enclosing *ast.BlockStmt, spawned *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == spawned {
			return false // the goroutine closing its own conn does not unblock it
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if closeReceiver(pkg, call) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
