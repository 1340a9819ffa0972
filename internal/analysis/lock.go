package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lock state for hotblock: resolving mutex access *paths*, classifying
// sync.Mutex / sync.RWMutex method calls, and running a must-held lock
// dataflow over a CFG. The interesting object is usually a struct field
// (`s.mu`), not a local, so facts key on an access path: the root
// variable's identity plus the chain of field names. Two paths with the same
// key refer to the same mutex within one function body.

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

// lockInfo is the per-mutex lattice element: the write or read side held on
// every path to this point. Only must-held states are kept — a mutex held
// on some paths only is not one hotblock may report work under.
type lockInfo struct {
	wmust, rmust bool
	// pos is where the lock was (first) acquired; name its display label.
	pos  token.Pos
	name string
}

func (l lockInfo) heldMust() bool { return l.wmust || l.rmust }

// lockSet maps path keys to lock state.
type lockSet map[string]lockInfo

func (ls lockSet) clone() lockSet {
	out := make(lockSet, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// join intersects src into dst: a mutex stays held only where both hold it,
// reported at the earlier acquisition. Reports whether dst changed.
func (ls lockSet) join(src lockSet) bool {
	changed := false
	for k, a := range ls {
		b := src[k]
		merged := lockInfo{wmust: a.wmust && b.wmust, rmust: a.rmust && b.rmust, pos: a.pos, name: a.name}
		if b.pos != token.NoPos && b.pos < merged.pos {
			merged.pos, merged.name = b.pos, b.name
		}
		switch {
		case !merged.heldMust():
			delete(ls, k)
			changed = true
		case merged != a:
			ls[k] = merged
			changed = true
		}
	}
	return changed
}

// lockTransfer applies one shallow CFG node's lock effects in place. A
// deferred unlock runs at return, so a defer statement changes nothing here;
// a call to a method that locks internally acquires and releases before
// returning, so calls leave the state unchanged too.
func lockTransfer(pkg *Package, n ast.Node, ls lockSet) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	applyCalls(pkg, n, func(call *ast.CallExpr) {
		ref, op, ok := syncLockCall(pkg, call)
		if !ok {
			return
		}
		key := ref.key()
		info := ls[key]
		if info.pos == token.NoPos {
			info.pos, info.name = call.Pos(), ref.name
		}
		switch op {
		case opLock:
			info.wmust = true
		case opRLock:
			info.rmust = true
		case opUnlock:
			info.wmust = false
		case opRUnlock:
			info.rmust = false
		}
		if info.heldMust() {
			ls[key] = info
		} else {
			delete(ls, key)
		}
	})
}

// runLockFlow iterates the lock lattice to a fixpoint over the CFG and then
// replays each reachable block once, invoking observe with the state holding
// *before* each node.
//
// Because the state is an intersection, initialization matters: only
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
