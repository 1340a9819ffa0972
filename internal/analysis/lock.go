package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Shared machinery for the concurrency-safety passes (lockcheck, guardedby):
// resolving mutex and field access *paths*, classifying sync.Mutex /
// sync.RWMutex method calls, and running the lock-obligation dataflow over a
// CFG. Locks are not values the existing obligation engine can track — the
// interesting object is usually a struct field (`s.mu`), not a local — so
// facts here key on an access path: the root variable's identity plus the
// chain of field names. Two paths with the same key refer to the same mutex
// within one function body; distinct roots (two *Sessions values) stay
// distinct, which is what makes "a.mu.Lock(); b.byToken" a finding.

// lockRef is a resolved access path: root variable plus field chain.
type lockRef struct {
	root   types.Object
	fields []string
	name   string // display label, e.g. "s.mu"
}

// key renders the identity key. The root's pointer identity disambiguates
// shadowed names; the key is never shown to users (name is).
func (r lockRef) key() string {
	return fmt.Sprintf("%p.%s", r.root, strings.Join(r.fields, "."))
}

// child extends the path by one field.
func (r lockRef) child(field string) lockRef {
	fields := make([]string, len(r.fields), len(r.fields)+1)
	copy(fields, r.fields)
	return lockRef{root: r.root, fields: append(fields, field), name: r.name + "." + field}
}

// resolvePath resolves `mu`, `s.mu`, `s.inner.mu` (parens and derefs
// tolerated) to a lockRef. Anything rooted elsewhere — a call result, an
// index expression — is not path-resolvable and returns ok=false.
func resolvePath(pkg *Package, e ast.Expr) (lockRef, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return resolvePath(pkg, e.X)
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return lockRef{}, false
		}
		return lockRef{root: obj, name: e.Name}, true
	case *ast.SelectorExpr:
		field, ok := pkg.Info.Uses[e.Sel].(*types.Var)
		if !ok || !field.IsField() {
			return lockRef{}, false
		}
		base, ok := resolvePath(pkg, e.X)
		if !ok {
			return lockRef{}, false
		}
		return base.child(e.Sel.Name), true
	}
	return lockRef{}, false
}

// lock operations.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
	opRLock
	opRUnlock
	opTryLock
)

// syncLockCall classifies a call as a sync.Mutex / sync.RWMutex method on a
// path-resolvable receiver. The receiver path includes the mutex itself:
// for `s.mu.Lock()` the ref is s.mu; for an embedded mutex (`s.Lock()`) the
// ref is s — the struct *is* the lock.
func syncLockCall(pkg *Package, call *ast.CallExpr) (lockRef, lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockRef{}, opNone, false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !isSyncMutexMethod(fn) {
		return lockRef{}, opNone, false
	}
	ref, ok := resolvePath(pkg, sel.X)
	if !ok {
		return lockRef{}, opNone, false
	}
	switch fn.Name() {
	case "Lock":
		return ref, opLock, true
	case "Unlock":
		return ref, opUnlock, true
	case "RLock":
		return ref, opRLock, true
	case "RUnlock":
		return ref, opRUnlock, true
	case "TryLock", "TryRLock":
		return ref, opTryLock, true
	}
	return lockRef{}, opNone, false
}

// isSyncMutexMethod reports whether fn is a method of sync.Mutex or
// sync.RWMutex (including their promoted forms on embedding structs).
func isSyncMutexMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// isMutexType reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return isMutexType(ptr.Elem())
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// isRWMutexType reports whether t (or *t) is sync.RWMutex.
func isRWMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return isRWMutexType(ptr.Elem())
	}
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "RWMutex"
}

// lockInfo is the per-mutex lattice element. The analysis tracks both
// senses at once: "may" (held on some path) and "must" (held on every path —
// what guardedby needs to *prove* protection, and what keeps double-lock and
// blocking-call findings free of branch noise). Deferred unlocks need two
// further bits because a defer stays pending for the rest of the function,
// across temporary releases and re-acquisitions:
//
//   - defMust: on every path reaching this point, an unlock for this mutex
//     is deferred. Acquiring while defMust holds is leak-free.
//   - leakMay: on some path reaching this point, the lock is held with no
//     deferral pending — the bit held-at-return reports on. Registering a
//     defer clears it (all paths through the defer are covered); releasing
//     the lock clears it.
type lockInfo struct {
	wmay, wmust bool // write lock held (may / on all paths)
	rmay, rmust bool // read lock held
	defMust     bool
	leakMay     bool
	// pos is where the lock was (first) acquired; name its display label.
	pos  token.Pos
	name string
}

func (l lockInfo) held() bool     { return l.wmay || l.rmay }
func (l lockInfo) heldMust() bool { return l.wmust || l.rmust }
func (l lockInfo) zero() bool {
	return !l.wmay && !l.rmay && !l.defMust && !l.leakMay
}

// lockSet maps path keys to lock state.
type lockSet map[string]lockInfo

func (ls lockSet) clone() lockSet {
	out := make(lockSet, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// joinLock merges two path states: may-union, must-intersection.
func joinLock(a, b lockInfo) lockInfo {
	out := lockInfo{
		wmay:    a.wmay || b.wmay,
		rmay:    a.rmay || b.rmay,
		wmust:   a.wmust && b.wmust,
		rmust:   a.rmust && b.rmust,
		defMust: a.defMust && b.defMust,
		leakMay: a.leakMay || b.leakMay,
	}
	out.pos, out.name = a.pos, a.name
	if out.pos == token.NoPos || (b.pos != token.NoPos && b.pos < out.pos) {
		out.pos, out.name = b.pos, b.name
	}
	return out
}

// join merges src into dst, treating missing entries as "not held" (which
// kills the must bits). Reports whether dst changed.
func (ls lockSet) join(src lockSet) bool {
	changed := false
	for k, v := range src {
		old, ok := ls[k]
		if !ok {
			old = lockInfo{}
		}
		merged := joinLock(old, v)
		if !ok || merged != old {
			ls[k] = merged
			changed = true
		}
	}
	for k, old := range ls {
		if _, ok := src[k]; ok {
			continue
		}
		merged := joinLock(old, lockInfo{})
		if merged != old {
			ls[k] = merged
			changed = true
		}
	}
	return changed
}

// lockTransfer applies one shallow CFG node's lock effects in place.
// Interprocedural effects are deliberately absent: a call to a method that
// locks internally acquires *and releases* before returning (methods that
// return holding a lock are flagged by lockcheck itself), so the state is
// unchanged across calls.
func lockTransfer(pkg *Package, n ast.Node, ls lockSet) {
	if d, ok := n.(*ast.DeferStmt); ok {
		for _, ref := range deferredUnlocks(pkg, d) {
			info := ls[ref.key()]
			info.defMust = true
			info.leakMay = false // every path through here is now covered
			ls[ref.key()] = info
		}
		return
	}
	applyCalls(pkg, n, func(call *ast.CallExpr) {
		ref, op, ok := syncLockCall(pkg, call)
		if !ok {
			return
		}
		key := ref.key()
		switch op {
		case opLock:
			info := ls[key]
			info.wmay, info.wmust = true, true
			info.leakMay = info.leakMay || !info.defMust
			if info.pos == token.NoPos {
				info.pos, info.name = call.Pos(), ref.name
			}
			ls[key] = info
		case opRLock:
			info := ls[key]
			info.rmay, info.rmust = true, true
			info.leakMay = info.leakMay || !info.defMust
			if info.pos == token.NoPos {
				info.pos, info.name = call.Pos(), ref.name
			}
			ls[key] = info
		case opTryLock:
			// TryLock may fail; the result-conditioned held state is beyond
			// this lattice. Record may-held only (keeps Unlock matched),
			// never must-held (guardedby will not credit it) and never a
			// leak (the failure path holds nothing).
			info := ls[key]
			info.wmay = true
			if info.pos == token.NoPos {
				info.pos, info.name = call.Pos(), ref.name
			}
			ls[key] = info
		case opUnlock:
			info := ls[key]
			info.wmay, info.wmust = false, false
			if !info.held() {
				info.leakMay = false
			}
			if info.zero() {
				delete(ls, key)
			} else {
				ls[key] = info
			}
		case opRUnlock:
			info := ls[key]
			info.rmay, info.rmust = false, false
			if !info.held() {
				info.leakMay = false
			}
			if info.zero() {
				delete(ls, key)
			} else {
				ls[key] = info
			}
		}
	})
}

// deferredUnlocks extracts the mutex paths a defer statement will release:
// `defer mu.Unlock()` directly, or unlock calls inside an immediately
// deferred closure (`defer func() { s.mu.Unlock() }()`).
func deferredUnlocks(pkg *Package, d *ast.DeferStmt) []lockRef {
	var refs []lockRef
	record := func(call *ast.CallExpr) {
		if ref, op, ok := syncLockCall(pkg, call); ok && (op == opUnlock || op == opRUnlock) {
			refs = append(refs, ref)
		}
	}
	record(d.Call)
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
	}
	return refs
}

// runLockFlow iterates the lock lattice to a fixpoint over the CFG and then
// replays each reachable block once, invoking observe with the state holding
// *before* each node.
//
// Because the must bits are an intersection, initialization matters: only
// the entry block starts with a real state (nothing held), and the first
// edge into a block *copies* the predecessor's out-state instead of joining
// it — joining against a default "nothing held" would kill the must bits of
// every block that has not been reached yet, making a lock provably held
// only within the basic block that acquired it. Blocks never reached from
// the entry (code after a terminating call) keep no state and are skipped
// in the replay.
func runLockFlow(pkg *Package, cfg *CFG, observe func(n ast.Node, ls lockSet)) {
	in := make([]lockSet, len(cfg.Blocks))
	seen := make([]bool, len(cfg.Blocks))
	queued := make([]bool, len(cfg.Blocks))
	in[cfg.Entry.Index] = make(lockSet)
	seen[cfg.Entry.Index] = true
	queued[cfg.Entry.Index] = true
	work := []*Block{cfg.Entry}
	for iter := 0; len(work) > 0; iter++ {
		if iter > 100000 {
			break // defensive: the lattice is finite
		}
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false
		out := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			lockTransfer(pkg, n, out)
		}
		for _, e := range blk.Succs {
			to := e.To.Index
			changed := false
			if !seen[to] {
				in[to] = out.clone()
				seen[to] = true
				changed = true
			} else {
				changed = in[to].join(out)
			}
			if changed && !queued[to] {
				work = append(work, e.To)
				queued[to] = true
			}
		}
	}
	if observe != nil {
		for _, blk := range cfg.Blocks {
			if !seen[blk.Index] {
				continue
			}
			ls := in[blk.Index].clone()
			for _, n := range blk.Nodes {
				observe(n, ls)
				lockTransfer(pkg, n, ls)
			}
		}
	}
}

// computeLockSummaries fills the two concurrency facts of the summary
// table. locksFields is syntactic: mutex fields of the receiver that the
// method acquires (propagated through same-receiver helper calls), feeding
// lockcheck's interprocedural self-deadlock rule. requiresLock runs the
// guarded-access scan (see guardedby.go) over every method: unproven
// accesses through the receiver become caller obligations, iterated to a
// fixpoint so helpers calling helpers hand the obligation all the way out.
func computeLockSummaries(ctx *Context, t summaryTable, decls []declSite) {
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			recv := receiverObj(d.pkg, d.fd)
			if recv == nil {
				continue
			}
			s := t.get(d.key)
			merge := func(path string, write bool) {
				cur, ok := s.locksFields[path]
				if ok && (cur || !write) {
					return
				}
				if s.locksFields == nil {
					s.locksFields = make(map[string]bool)
				}
				s.locksFields[path] = cur || write
				changed = true
			}
			ast.Inspect(d.fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // may run on another goroutine
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if ref, op, ok := syncLockCall(d.pkg, call); ok && ref.root == recv {
					switch op {
					case opLock:
						merge(strings.Join(ref.fields, "."), true)
					case opRLock:
						merge(strings.Join(ref.fields, "."), false)
					}
					// TryLock is excluded: it fails gracefully instead of
					// deadlocking when the caller already holds the mutex.
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				base, ok := resolvePath(d.pkg, sel.X)
				if !ok || base.root != recv {
					return true
				}
				if sum := t.of(calleeFunc(d.pkg, call)); sum != nil {
					for p, w := range sum.locksFields {
						merge(joinPath(base.fields, p), w)
					}
				}
				return true
			})
		}
	}

	if ctx.Guarded.empty() {
		return
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			recv := receiverObj(d.pkg, d.fd)
			if recv == nil {
				continue
			}
			s := t.get(d.key)
			guardedScan(ctx, t, d.pkg, d.key, d.fd.Body, func(h guardedHit) {
				if h.root != recv {
					return
				}
				cur, ok := s.requiresLock[h.mpath]
				if ok && (cur || !h.write) {
					return
				}
				if s.requiresLock == nil {
					s.requiresLock = make(map[string]bool)
				}
				s.requiresLock[h.mpath] = cur || h.write
				changed = true
			})
		}
	}
}

// receiverObj returns the declared receiver variable of a method, or nil.
func receiverObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[fd.Recv.List[0].Names[0]]
}

// selectCommStmts collects the communication statements of every select in
// the body. The CFG lowers a CommClause's comm into its case block like any
// statement; lockcheck must not treat those as bare blocking channel
// operations (a select is the idiomatic escape hatch — it typically carries
// a quit case or default).
func selectCommStmts(body *ast.BlockStmt) map[ast.Node]bool {
	comms := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				comms[cc.Comm] = true
			}
		}
		return true
	})
	return comms
}
