package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The lock-flow tests need snippets that import "sync", but parseCFG's
// checker has no importer. Instead of reaching for export data, the tests
// type-check a hand-built stub sync package: the passes only ever look at
// the package *path* and the method names (see isSyncMutexMethod), so a
// stub with the right shape is indistinguishable from the real thing and
// keeps the tests hermetic.
const stubSyncSrc = `package sync

type Mutex struct{ state int32 }

func (m *Mutex) Lock()         {}
func (m *Mutex) Unlock()       {}
func (m *Mutex) TryLock() bool { return false }

type RWMutex struct{ state int32 }

func (m *RWMutex) Lock()          {}
func (m *RWMutex) Unlock()        {}
func (m *RWMutex) RLock()         {}
func (m *RWMutex) RUnlock()       {}
func (m *RWMutex) TryLock() bool  { return false }
func (m *RWMutex) TryRLock() bool { return false }
`

type stubImporter struct{ pkgs map[string]*types.Package }

func (i stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.pkgs[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("stub importer: %q not available", path)
}

// parseLockPkg type-checks a snippet (the body of `package p`, importing at
// most the stub sync) and returns the analysis Package.
func parseLockPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	syncFile, err := parser.ParseFile(fset, "sync.go", stubSyncSrc, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse stub sync: %v", err)
	}
	syncPkg, err := (&types.Config{}).Check("sync", fset, []*ast.File{syncFile}, nil)
	if err != nil {
		t.Fatalf("type-check stub sync: %v", err)
	}

	file, err := parser.ParseFile(fset, "lock_test.go", "package p\n\nimport \"sync\"\n\n"+src,
		parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: stubImporter{pkgs: map[string]*types.Package{"sync": syncPkg}}}
	tpkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{ImportPath: "p", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
}

// heldAtWork runs the lock flow over fn and reports, for each call to work()
// in source order, whether some mutex is held on every path to it — the
// question hotblock asks at a costly call.
func heldAtWork(t *testing.T, src, fn string) []bool {
	t.Helper()
	pkg := parseLockPkg(t, "func work() {}\n\n"+src)
	for _, decl := range pkg.Files[0].Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn || fd.Body == nil {
			continue
		}
		held := make(map[token.Pos]bool)
		runLockFlow(pkg, buildCFG(pkg, fn, fd.Body, nil), func(n ast.Node, ls lockSet) {
			applyCalls(pkg, n, func(call *ast.CallExpr) {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "work" {
					_, held[call.Pos()] = anyMustHeld(ls)
				}
			})
		})
		var out []bool
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if h, seen := held[call.Pos()]; seen {
					out = append(out, h)
				}
			}
			return true
		})
		return out
	}
	t.Fatalf("function %q not found", fn)
	return nil
}

// TestLockFlowDeferUnlock pins the must-held semantics hotblock relies on:
// a deferred unlock runs at return, so the mutex stays held for the rest of
// the body; an explicit unlock releases it under a pending defer; a lock
// taken on only some paths is not held at the join; TryLock is never
// credited.
func TestLockFlowDeferUnlock(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []bool // held at each work() call, in source order
	}{
		{
			name: "a deferred unlock holds the mutex until return",
			src: `func f(mu *sync.Mutex) {
				mu.Lock()
				defer mu.Unlock()
				work()
			}`,
			want: []bool{true},
		},
		{
			name: "an unlock in a deferred closure holds it too",
			src: `func f(mu *sync.Mutex) {
				mu.Lock()
				defer func() { mu.Unlock() }()
				work()
			}`,
			want: []bool{true},
		},
		{
			name: "an explicit unlock releases under a pending defer",
			src: `func f(mu *sync.Mutex) {
				mu.Lock()
				defer mu.Unlock()
				mu.Unlock()
				work()
				mu.Lock()
				work()
			}`,
			want: []bool{false, true},
		},
		{
			name: "a lock taken on one branch is not held at the join",
			src: `func f(mu *sync.Mutex, c bool) {
				if c {
					mu.Lock()
					work()
				}
				work()
			}`,
			want: []bool{true, false},
		},
		{
			name: "the rwmutex read side is held under its deferred runlock",
			src: `func f(mu *sync.RWMutex) {
				mu.RLock()
				defer mu.RUnlock()
				work()
				mu.RUnlock()
				work()
			}`,
			want: []bool{true, false},
		},
		{
			name: "a trylock is never credited",
			src: `func f(mu *sync.Mutex) {
				if mu.TryLock() {
					work()
				}
			}`,
			want: []bool{false},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := heldAtWork(t, tt.src, "f"); fmt.Sprint(got) != fmt.Sprint(tt.want) {
				t.Errorf("held at work() = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestCFGSelectEdges pins the select lowering: one clause block per
// communication, each fed from the head and rejoining
// at the after block, with the comm statement lowered into its clause block.
func TestCFGSelectEdges(t *testing.T) {
	cfg := parseCFG(t, `func f(ch, quit chan int) int {
		select {
		case v := <-ch:
			return v
		case <-quit:
			return 0
		}
	}`, "f")
	got := strings.TrimSpace(cfg.dump())
	want := strings.TrimSpace(`b0(entry): [] -> {b2 b3}
b1: [end] -> {b4}
b2: [assign return] -> {b4}
b3: [expr return] -> {b4}
b4(exit): [] -> {}`)
	if got != want {
		t.Errorf("select CFG mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCFGSelectBreak pins that break inside a select clause targets the
// select's after block (the frame pushed by selectStmt), not an enclosing
// loop.
func TestCFGSelectBreak(t *testing.T) {
	cfg := parseCFG(t, `func f(ch chan int) int {
		n := 0
		for {
			select {
			case v := <-ch:
				if v == 0 {
					break
				}
				n += v
			}
			n++
		}
	}`, "f")
	// The loop must still be entered from the select's after block: a break
	// that (wrongly) escaped the loop would leave the n++ block unreachable.
	var incBlock *Block
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if inc, ok := n.(*ast.IncDecStmt); ok {
				if id, ok := inc.X.(*ast.Ident); ok && id.Name == "n" {
					incBlock = b
				}
			}
		}
	}
	if incBlock == nil {
		t.Fatal("n++ block not found")
	}
	reached := false
	for _, b := range cfg.Blocks {
		for _, e := range b.Succs {
			if e.To == incBlock {
				reached = true
			}
		}
	}
	if !reached {
		t.Fatal("break inside select escaped the select: n++ is unreachable")
	}
}
