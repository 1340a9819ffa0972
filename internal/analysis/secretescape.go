package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// SecretEscape proves (or refutes) the premise behind zeroize's discharge
// rules. Zeroize treats "the buffer escaped" as the obligation moving to a
// new owner; that is sound for connections, but for secret bytes an escape
// is exactly the failure: a secret slice stored into a longer-lived
// structure, captured into a goroutine, or copied into an immutable string
// is key material pki.WipeBytes can no longer erase (the paper's §3
// repository model assumes decrypted keys are transient). This pass runs the
// intraprocedural escape analysis (escape.go) over every function and flags
// secret-carrying locals whose facts break wipeability:
//
//   - sent on a channel: wiping after the send races the receiver; always
//     reported.
//   - stored / address-taken / captured without any wipe in the function:
//     the slice header escapes, and since nothing zeroes the (shared)
//     backing array, the escaped view keeps the plaintext alive. A wipe
//     anywhere in the function suppresses — slice views share backing, so
//     zeroing the local reaches the escaped copy too.
//   - returned: exempt; the caller inherits the obligation (zeroize's
//     documented contract, e.g. pki.OpenBytes).
//
// Two copy forms are flagged directly, independent of escape facts, because
// the copy itself is unreachable by any wipe: string(secretBytes) (strings
// are immutable), and a secret-producer call whose result flows straight
// into a composite literal or a field — there is no local to wipe at all,
// which is precisely the hole zeroize cannot see (it only tracks assigned
// locals).
//
// Secret-carrying locals are: byte-slice parameters labelled secret by PR
// 2's conventions (//myproxy:secret types or secret names), locals assigned
// from secret-producer calls (the x509 marshalers, //myproxy:secret-marked
// functions), and locals holding []byte(secretString) copies.
var SecretEscape = &Pass{
	Name: "secretescape",
	Doc:  "secret buffer escapes the frame or is copied where no wipe can reach",
	Run:  runSecretEscape,
}

func runSecretEscape(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, secretEscapeFunc(ctx, pkg, fd)...)
		}
	}
	return diags
}

func secretEscapeFunc(ctx *Context, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	tracked := secretLocals(ctx, pkg, fd)
	diags = append(diags, secretCopySites(ctx, pkg, fd)...)
	if len(tracked) == 0 {
		return diags
	}

	esc := escapeFacts(pkg, fd)
	objs := make([]types.Object, 0, len(tracked))
	for obj := range tracked {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })

	for _, obj := range objs {
		f := esc.fact(obj)
		switch {
		case f&escSent != 0:
			diags = append(diags, pkg.diag("secretescape", obj.Pos(),
				"%q (%s) is sent on a channel in %s; a wipe here races the receiver — transfer ownership explicitly and wipe at the receiver",
				obj.Name(), tracked[obj], fd.Name.Name))
		case f&(escStored|escAddrTaken|escCaptured) != 0:
			v, _ := obj.(*types.Var)
			if v != nil && bodyWipes(pkg, ctx.Summaries, fd.Body, v) {
				continue // views share the backing array; the wipe reaches the escapee
			}
			diags = append(diags, pkg.diag("secretescape", obj.Pos(),
				"%q (%s) %s in %s and is never wiped there; the escaped view keeps the plaintext alive beyond pki.WipeBytes's reach",
				obj.Name(), tracked[obj], (f&^escReturned).describe(), fd.Name.Name))
		}
	}
	return diags
}

// secretLocals collects the function's secret-carrying byte-slice variables:
// labelled parameters, secret-producer results, and []byte(secret) copies.
func secretLocals(ctx *Context, pkg *Package, fd *ast.FuncDecl) map[types.Object]string {
	tracked := make(map[types.Object]string)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil || !isByteSlice(obj.Type()) {
					continue
				}
				if desc, ok := ctx.secretIdent(pkg, name, name.Name); ok {
					tracked[obj] = desc
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		desc, secret := secretProducer(ctx, pkg, call)
		if !secret {
			// []byte(secretString): a mutable copy of the secret — wipeable,
			// so it is tracked rather than flagged outright.
			if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
				if cv, ok := pkg.Info.Types[call]; ok && isByteSlice(cv.Type) {
					if d, ok := ctx.secretCarrier(pkg, call.Args[0]); ok {
						desc, secret = "copy of "+d, true
					}
				}
			}
		}
		if !secret {
			return true
		}
		for _, l := range as.Lhs {
			if obj := assignedObj(pkg, l); obj != nil && isByteSlice(obj.Type()) {
				tracked[obj] = desc
			}
		}
		return true
	})
	return tracked
}

// secretCopySites flags the copies no wipe can reach: string(secretBytes)
// conversions and secret-producer results flowing straight into a composite
// literal or stored field without an intermediate local.
func secretCopySites(ctx *Context, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// string(secret): immutable copy.
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			at := exprType(pkg, call.Args[0])
			if cv, ok := pkg.Info.Types[call]; ok && isStringType(cv.Type) && at != nil && isByteSlice(at) {
				if desc, secret := ctx.secretCarrier(pkg, call.Args[0]); secret {
					diags = append(diags, pkg.diag("secretescape", call.Pos(),
						"string(...) of %s in %s makes an immutable copy that can never be wiped; keep secrets in []byte",
						desc, fd.Name.Name))
				}
			}
			return true
		}
		// producer(...) directly inside a composite literal or field store.
		if desc, secret := secretProducer(ctx, pkg, call); secret {
			if where := unwipeableSink(pkg, stack); where != "" {
				diags = append(diags, pkg.diag("secretescape", call.Pos(),
					"%s flows directly into %s in %s with no local to wipe; land it in a []byte and pki.WipeBytes it after use",
					desc, where, fd.Name.Name))
			}
		}
		return true
	})
	return diags
}

// unwipeableSink classifies the context directly above a producer call that
// leaves no wipeable local: a composite-literal element or a store through a
// selector/index. Plain assignments to locals return "" (zeroize tracks
// those), as do argument passes and returns (the callee/caller inherits).
func unwipeableSink(pkg *Package, stack []ast.Node) string {
	self := ast.Node(stack[len(stack)-1])
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.KeyValueExpr:
			self = p
			continue
		case *ast.CompositeLit:
			return "a composite literal"
		case *ast.AssignStmt:
			for j, r := range p.Rhs {
				if r == self && len(p.Lhs) == len(p.Rhs) {
					if assignedObj(pkg, p.Lhs[j]) == nil {
						return "a stored field"
					}
				}
			}
			return ""
		default:
			return ""
		}
	}
	return ""
}

func exprType(pkg *Package, e ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}
