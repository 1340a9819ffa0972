package analysis

import (
	"go/ast"
	"go/token"
)

// HotBlock flags stalls inside the hot cone: a mutex held across blocking or
// costly work, a sleep, or an unbounded dial in a //myproxy:hotpath-reachable
// function. The paper's repository multiplexes many portal clients over one
// process (§4, §6), and PRs 3/8 made the Fig. 2 loop sub-millisecond — at
// that scale a critical section that hashes, signs or performs I/O while a
// hot mutex is held serializes every concurrent request on one peer's pace.
//
// The costly-work relation is interprocedural: hotCostlySeeds names the
// stdlib and repository leaf operations that block or burn CPU, and
// computeHotCostly (hotpath.go) closes the set over the call graph, so
// calling a wrapper that eventually does network I/O is as much a finding as
// the I/O itself. Lock state comes from PR 5's lock lattice (lock.go) — the
// finding fires only when a mutex is must-held at the call, keeping branchy
// false positives out. Like lockcheck, immediately deferred literal bodies
// are skipped (they run at return under the enclosing flow), and calls
// inside nested function literals are attributed to the literal's own cone
// visit, not the creator's.
var HotBlock = &Pass{
	Name: "hotblock",
	Doc:  "mutex held across costly work, sleep, or unbounded dial in a hot-path function",
	Run:  runHotBlock,
}

// hotCostlySeeds maps qualified function keys to a short description of the
// blocking/costly work they perform. computeHotCostly propagates these up
// the call graph: a function is costly when it is a seed or may call one.
// Interface-method keys ((io.Writer).Write) cover dispatch sites whose
// static type is the interface; the concrete counterparts are listed too.
var hotCostlySeeds = map[string]string{
	"(crypto/tls.Conn).Handshake":        "TLS handshake",
	"(crypto/tls.Conn).HandshakeContext": "TLS handshake",
	"(crypto/tls.Conn).Read":             "TLS read",
	"(crypto/tls.Conn).Write":            "TLS write",
	"(net.Conn).Read":                    "network read",
	"(net.Conn).Write":                   "network write",
	"(io.Reader).Read":                   "stream read",
	"(io.Writer).Write":                  "stream write",
	"(io.ReadWriter).Read":               "stream read",
	"(io.ReadWriter).Write":              "stream write",
	"io.ReadFull":                        "stream read",
	"io.Copy":                            "stream copy",
	"(os.File).Read":                     "file read",
	"(os.File).Write":                    "file write",
	"(os.File).Sync":                     "file sync",
	"os.ReadFile":                        "file read",
	"os.WriteFile":                       "file write",
	"time.Sleep":                         "sleep",
	"(sync.WaitGroup).Wait":              "blocking wait",
	"(hash.Hash).Write":                  "hashing",
	"(hash.Hash).Sum":                    "hashing",
	"crypto/sha256.Sum256":               "hashing",
	"crypto/ed25519.Sign":                "signing",
	"crypto/rsa.SignPKCS1v15":            "signing",
	"crypto/ecdsa.SignASN1":              "signing",
	"crypto/x509.CreateCertificate":      "certificate signing",
	"crypto/rand.Read":                   "entropy read",
}

// ctxlessDialKeys are dials that can block without any cancellation handle.
var ctxlessDialKeys = map[string]bool{
	"net.Dial":                 true,
	"crypto/tls.Dial":          true,
	"(net.Dialer).Dial":        true,
	"(crypto/tls.Dialer).Dial": true,
}

func runHotBlock(ctx *Context, pkg *Package) []Diagnostic {
	if len(ctx.HotCone) == 0 {
		return nil
	}
	deferred := deferredLitBodies(pkg)
	var diags []Diagnostic
	hotBodies(ctx, pkg, func(key string, fn ast.Node, body *ast.BlockStmt) {
		if deferred[body] {
			return
		}
		diags = append(diags, hotBlockBody(ctx, pkg, key, body)...)
	})
	return diags
}

func hotBlockBody(ctx *Context, pkg *Package, key string, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	cfg := ctx.cfgOf(pkg, key, body)
	short := shortFuncKey(key)
	reported := make(map[token.Pos]bool)

	runLockFlow(pkg, cfg, func(n ast.Node, ls lockSet) {
		applyCalls(pkg, n, func(call *ast.CallExpr) {
			if reported[call.Pos()] {
				return
			}
			fn := calleeFunc(pkg, call)
			if fn == nil {
				return
			}
			k := funcKey(fn)
			switch {
			case k == "time.Sleep":
				reported[call.Pos()] = true
				diags = append(diags, pkg.diag("hotblock", call.Pos(),
					"time.Sleep in hot-path function %s; the authenticate-unseal-delegate loop must not sleep — use deadlines or move the wait off the hot path",
					short))
				return
			case ctxlessDialKeys[k]:
				reported[call.Pos()] = true
				diags = append(diags, pkg.diag("hotblock", call.Pos(),
					"%s in hot-path function %s has no context or deadline bound; a slow peer stalls the hot path — use DialContext or DialTimeout",
					shortCallee(fn), short))
				return
			}
			// Don't double-report the lock's own operations as costly work.
			if _, _, isLockOp := syncLockCall(pkg, call); isLockOp {
				return
			}
			work := ctx.HotCostly[k]
			if work == "" {
				return
			}
			if mu, ok := anyMustHeld(ls); ok {
				reported[call.Pos()] = true
				diags = append(diags, pkg.diag("hotblock", call.Pos(),
					"%s is held across %s (%s) in hot-path function %s; move the work outside the critical section",
					mu.name, shortCallee(fn), work, short))
			}
		})
	})
	return diags
}
